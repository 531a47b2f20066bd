"""Monotone biGSOS specifications, executable.

Rule banks with lookahead premises and complex conclusion targets are
interpreted over finite term universes: the least supported model is the
limit of Kleene iteration from the all-bottom model, sound under truncation
(outside terms read as bottom).  On top of the models sit finite
unfoldings, simulation and bisimulation checks, and a law suite that checks
the lifting/monad facts the construction relies on exactly on the models.
"""

from .behaviour import (BOTTOM, CountableLTS, LtsValue, PartialStream, Relation,
                        StreamStep, WeightedLTS, WtsValue)
from .engine import (ConvergenceReport, GenCoalgebra, Model, gen_to_model,
                     least_model, lift_coalgebra, model_to_dot, model_to_json,
                     phi_step, unfold, unfold_to_json)
from .errors import (ArityError, BigsosError, CarrierMismatchError,
                     InconsistentStreamError, InvalidSpecError, LabelEvalError,
                     NonConvergenceError, NonMonotoneError, ParseError, StateMapError,
                     UnboundVariableError, UnknownOperatorError, UnknownStateError)
from .relations import (CongruenceReport, EquivResult, LawResult, bisimilarity_classes,
                        check_equivalence, congruence_test, depth_similarity,
                        distinguishing_depth, greatest_simulation, law_suite)
from .speclang import (Rule, Spec, check_monotone, lookahead_depth, parse_spec,
                       validate_spec)
from .terms import (App, Operator, Signature, Term, UniversePolicy, Var, parse_term,
                    print_term, substitute)

__version__ = "0.1.0"
