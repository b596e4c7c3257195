"""Exact Laurent-matrix representations of cylindrical and flat-virtual
braid words, with an independent trajectory engine for cross-checking."""

from .errors import (BraidrepError, DimMismatch, IncompatibleRepGroup,
                     IndexOutOfRange, KindNotInGroup, NonGenericInput,
                     NonIntegerWinding, NonZeroLinking, NotPure,
                     PunctureCollision, SeparationViolated, UnknownMacro,
                     WordSyntaxError, ZeroAssignment)
from .laurent import (Assignment, LaurentPoly, Matrix, format_poly, lp_eval,
                      mat_eval, mat_mul, mat_to_json, mat_to_text,
                      poly_from_json, poly_to_json, rational_det,
                      rational_rank)
from .braidword import (FAMILIES, GroupId, Letter, Word, band_generator_letters,
                        bigelow5, commutator_letters, format_word, invert,
                        is_pure, parse_group, parse_word, pi,
                        random_pure_word, random_zero_linking_word,
                        relation_suite, sigma, tau, underlying_permutation,
                        word_from_json, word_to_json, zeta)
from .rep import (BURAU_REDUCED, BURAU_UNREDUCED, RHO, RHO_TILDE,
                  check_compatible, generator_image, rep_dim, word_image)
from .homs import (PipelineConfig, f_d, p_k, pipeline_matrix, pipeline_word,
                   rotation_block_letters, strand_removal_letters)
from .relcheck import (Failure, Report, verify_oracle_agreement,
                       verify_pk_cocycle, verify_relations)
from .geom import (BISECTION_TOL, GENERICITY_TOL, SEPARATION_TOL, Event,
                   GeomBraid, PuncturedView, artin_dynamics, base_points,
                   braid_from_json, braid_to_json, concat, cylinder_events,
                   cylinder_reading, events_to_json, flat_virtual_word,
                   initial_order, linking_number, pair_reading, perturb,
                   power_map_extract, psi_d_events, psi_events, q_kl,
                   realize_flat_virtual, render_svg, resample)

__version__ = "0.1.0"
