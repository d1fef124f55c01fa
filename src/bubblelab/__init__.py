"""bubblelab: desk-scale numerics for energy concentration in the critical
semilinear elliptic equation -Lap(u) = u |u|^(4/(n-2)) on R^n, n >= 3.

Submodules:

* ``grid``          quadrature on balls, spheres and annuli;
* ``fields``        bubbles, superpositions, residuals;
* ``monotonicity``  the radius-indexed local energy and its checks;
* ``lorentz``       rearrangements and Lorentz-norm calculus;
* ``concentration`` synthetic concentrating sequences and quantization;
* ``cli``           the ``bubblelab`` command-line driver.
"""

from .grid import (
    QuadratureRule,
    RadialGrid,
    build_annulus_rule,
    build_ball_rule,
    build_sphere_rule,
    integrate,
    unit_ball_volume,
    unit_sphere_area,
)
from .fields import (
    Bubble,
    BubbleConfiguration,
    RescaledField,
    ScalarField,
    Superposition,
    aubin_talenti,
    gradient,
    laplacian,
    pde_residual,
    pohozaev_report,
)
from .monotonicity import (
    MonotonicityProfile,
    check_monotone,
    check_positive,
    energy_E,
    profile,
)
from .lorentz import (
    LorentzIndex,
    RearrangementTable,
    SampledFunction,
    duality_product_checks,
    lorentz_norm,
    rearrange,
    tail_decay_check,
)
from .concentration import (
    BubbleConstant,
    ConcentrationSequence,
    DefectReport,
    QuantizationConfig,
    bubble_energy_constant,
    detect_sigma,
    energy_in,
    make_sequence,
    neck_energies,
    neck_energy,
    quantization_report,
    scaled_measure,
    theta_estimate,
)

__version__ = "0.1.0"
