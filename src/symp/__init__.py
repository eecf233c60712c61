"""Trace moments of Haar-random unitary symplectic matrices.

Exact closed forms (:mod:`symp.moments`), numerical Haar oracles
(:mod:`symp.haar`), finite-field cross-checks via hyperelliptic
L-functions (:mod:`symp.ffield`) and narrow-bandwidth linear statistics
(:mod:`symp.linstat`), all indexed by sparse partitions
(:mod:`symp.partitions`).
"""

from .partitions import Partition, partitions_of_size_at_most, sub_partitions
from .moments import (
    even_indicator,
    gaussian_moment,
    gaussian_moment_single,
    moment_so_gaussian,
    moment_u_gaussian,
    moment_usp,
    moment_usp_gaussian,
    nongaussian_correction,
    pairing_weight_sum,
)
from .haar import MCConfig, moment_mc, moment_quadrature
from .linstat import FourierTestFn, statistic_moment_exact, statistic_moment_gaussian
from .ffield import PrimeField, empirical_moment, l_polynomial

__version__ = "0.1.0"

__all__ = [
    "Partition",
    "partitions_of_size_at_most",
    "sub_partitions",
    "even_indicator",
    "gaussian_moment",
    "gaussian_moment_single",
    "nongaussian_correction",
    "moment_usp",
    "moment_usp_gaussian",
    "moment_so_gaussian",
    "moment_u_gaussian",
    "pairing_weight_sum",
    "MCConfig",
    "moment_quadrature",
    "moment_mc",
    "FourierTestFn",
    "statistic_moment_exact",
    "statistic_moment_gaussian",
    "PrimeField",
    "empirical_moment",
    "l_polynomial",
    "__version__",
]
