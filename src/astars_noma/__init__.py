"""Link-level performance analysis of an active simultaneously transmitting
and reflecting surface (ASTARS) assisted NOMA downlink.

Closed-form outage/ergodic-rate evaluators with their high-SNR asymptotics,
an exact Monte Carlo simulator of the same signal model (plus orthogonal
and passive-surface baselines), and a CLI that sweeps, cross-validates,
and emits figure data.
"""

from .analytic import (NumericIntegrityError, SicMode, ergodic_rate_r,
                       ergodic_rate_t, outage_r, outage_t, rate_ceiling_t,
                       system_outage, target_sinr, throughput_delay_limited,
                       throughput_delay_tolerant)
from .asymptotic import (OutOfRegimeError, SlopeFit, ergodic_asym_r_ipsic,
                         ergodic_bound_r_psic, fit_order, high_snr_cascade_cdf,
                         outage_asym_r_psic, outage_asym_t,
                         outage_floor_r_ipsic)
from .model import (ConfigError, GammaApprox, NetworkConfig, cascade_cdf,
                    db_to_linear, dbm_to_watts, distance_pdf, element_moments,
                    gamma_fit, noise_power_factor, sample_distance,
                    watts_to_dbm)
from .montecarlo import Estimate, budget_to_ps, simulate, surface_output_power
from .numerics import (QuadratureRule, bessel_k, gauss_jacobi_rule,
                       gauss_laguerre_rule, laguerre_half, reg_lower_gamma)

__version__ = "0.1.0"
