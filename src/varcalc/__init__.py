"""varcalc: exact variational calculus on coordinate charts."""

from .chart import Chart, FieldComponent, FunctionSymbol, VarcalcError
from .algebra import LocalForm, PointAssignment, d_h, d_v, evaluate, substitute, zero_star
from .euler import EvolutionaryField, exterior_euler, insert, interior_euler, lie_derivative
from .homotopy import HomotopySuite, get_suite
from .theory import SymmetryAction, Theory, theory_from_text
from .noether import (NoetherData, decompose_dual_current, noether2,
                      noether_cone, verify_identity, verify_noether1)
from .slicing import (CornerData, SigmaTheory, SliceSpec, compute_ce_cocycle,
                      corner_data, restrict_to_slice, sigma_noether,
                      split_constraint_flux, verify_corner_master)
from .bv import (BFVTheory, BVTheory, bfv_extend, bv_bracket, bv_extend,
                 check_q_nilpotent, cohomology_witness, verify_bvbfv, verify_cme)
from .dsl import TheoryDef, build_context, elaborate_form, parse_expression, parse_theory
from .render import form_json, render_text, report_json

__version__ = "0.1.0"
