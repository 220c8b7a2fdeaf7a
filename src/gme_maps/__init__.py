"""Genuine multipartite entanglement detection with lifted positive maps."""

from .operators import (MpOperator, PartySubset, SiteDims, diag_part, identity,
                        is_density, is_hermitian, kron, min_eig, od_part,
                        operator, partial_trace, partial_transpose,
                        schur_product)
from .states import (NoiseMixture, PptFamilyParams, PureState, clock_matrix,
                     depolarized, ghz, maximally_entangled, maximally_mixed,
                     ppt_family, ppt_family_terms, pure, random_biseparable,
                     random_product_pure, random_pure, shift_matrix, w_state)
from .maps import (MapExpr, apply, breuer_hall_map, choi_map, compose,
                   conjugation_map, diag_map, dual, estimate_mu, identity_map,
                   lift, map_sum, mu_constant, reduction_map, scale,
                   trace_identity, transpose_map)
from .criteria import (Claim, GmeMap, alpha_critical, bipartitions, build_map,
                       eta_map, map_to_witness, mu_map, phi_b, phi_r, phi_t,
                       phi_tx, witness_to_map, x_projector, x_projector_mixture,
                       MAP_IDS)
from .detect import (BisepReport, NotDetectedError, PptReport, ScanRow,
                     ThresholdResult, Verdict, detect, lambda_scan,
                     noise_threshold, ppt_check, verify_biseparable_positivity,
                     visibility_scan, white_noise_threshold)

__version__ = "0.1.0"
