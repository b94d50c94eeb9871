"""Exact construction and verification of pluriharmonic differential
operators on Siegel modular forms, with theta-constant expansions, bracket
operators, and divisor-class slope bookkeeping."""

from .scalars import PoleError, RatFunc
from .poly import MultiPoly, coeff_R, det_expand, index_set_N, minor_coeff_R
from .jets import JetPoly, diffresult_expand, jet_apply, jet_det_partial, jet_mod_symbol
from .opgen import (OperatorSpec, apply_D11, build_Q, constant_C, symbolic_weight,
                    verify_deriv_lemma, verify_harmonic_condition,
                    verify_pluriharmonic, xspace_oracle)
from .qexp import QExp1, QExp2, eval_jetpoly, product_balanced
from .theta import (ThetaChar, check_condition_star, check_heat, check_modularity,
                    even_chars, schottky_qexp, theta_numeric, theta_qexp, tnull_qexp)
from .brackets import eis1_qexp, scalar_bracket_jet, scalar_bracket_q, vector_bracket_jet
from .slopes import (DivClass, class_N0prime, class_operator_output, class_tnull,
                     hyperelliptic_bound, known_slopes_table, moving_bound, slope)

__version__ = "0.1.0"
