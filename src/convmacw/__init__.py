"""Exact weight adjacency matrices and MacWilliams duality for
convolutional codes over finite fields."""

from .adjacency import (AdjMatrix, StatePermutation, adjacency_by_cosets,
                        adjacency_by_transitions, conjugate, entry_sums)
from .duality import (CharacterMatrix, DualityReport, DualPair, FourierMatrix,
                      SearchResult, TransformedMatrix, check_unit_memory,
                      check_weak_identity, check_witness,
                      closed_form_witness_dual, closed_form_witness_primal,
                      fourier_conjugate, macwilliams_image, run_verification,
                      search_witness, state_pairing_matrix)
from .errors import GuardExceeded, InternalCheckError
from .exact import (CycloNum, CycloPoly, WePoly, macwilliams_transform,
                    macwilliams_we, root_power, we_of_affine)
from .field import FieldElement, FieldSpec, enumerate_vectors, trace
from .linalg import FMat, Subspace
from .polymat import (CodeProfile, PolyMatrix, ZPoly, code_degree,
                      dual_generator, encode, codeword_weight, is_basic,
                      is_minimal, make_minimal_basic, parse_zpoly,
                      random_minimal_encoder, same_code, smith_normal_form)
from .statespace import (ControllerForm, PairSplit, coefficient_code,
                         connected_pairs, connected_pairs_orth, constant_code,
                         controller_form, output_kernel, output_rep,
                         pair_split)

__version__ = "0.1.0"
