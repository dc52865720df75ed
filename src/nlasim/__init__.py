"""Truncated-Fock-space simulation and optimisation of heralded noiseless
linear amplifiers, for coherent-state amplification and multimode
entanglement distillation."""

from .fock import (NormalizationError, TruncationError, attenuator_diagonal,
                   beam_splitter_unitary, coherent_state, squeezing_from_db,
                   squeezing_to_db, tmsv_schmidt, transmissivity_from_db,
                   vacuum_projection_diagonal)
from .nla import (AmplifyResult, amplify_coherent, equal_gain_transmissivity,
                  fidelity_to_coherent, nla_diagonal, pc_gain,
                  pc_nla_diagonal, qs_gain, qs_nla_diagonal)
from .distill import (DistillResult, PdcSpec, apply_strategy,
                      lossy_pdc_densities, reference_no_nla, scenario_lambdas)
from .optimize import (SweepConfig, max_fidelity_profile, maximize_over_T,
                       maximize_total_logneg)

__version__ = "0.1.0"
