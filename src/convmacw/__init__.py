"""Exact weight adjacency matrices and MacWilliams duality for
convolutional codes over finite fields."""

from .adjacency import AdjMatrix, adjacency_by_cosets, adjacency_by_transitions
from .duality import (DualityReport, DualPair, SearchResult, check_unit_memory,
                      check_weak_identity, check_witness,
                      closed_form_witness_dual, closed_form_witness_primal,
                      fourier_transform, macwilliams_image, run_verification,
                      search_witness)
from .errors import GuardExceeded, InternalCheckError
from .exact import WePoly
from .field import FieldElement, FieldSpec
from .linalg import FMat, Subspace
from .polymat import (CodeProfile, PolyMatrix, ZPoly, code_degree,
                      dual_generator, is_basic, is_minimal, make_minimal_basic,
                      parse_zpoly, smith_normal_form)
from .statespace import (ControllerForm, coefficient_code, connected_pairs,
                         connected_pairs_orth, constant_code, controller_form,
                         output_map)

__version__ = "0.1.0"
