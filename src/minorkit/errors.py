"""Shared exception types, and the work budgets of the bounded searches.

Every loud failure mode in the library is one of these; nothing silently
truncates a search. A search is bounded by the work it does, not by the
size of its input: it charges a Budget and raises BudgetExceeded, naming
its units and how far it got, once that is spent. The defaults, with the
time each takes to run out (Python 3.11, one core of a 2-CPU VM):
- NODE_BUDGET = 10**6 nodes, afresh per count_linkages, disjoint_paths or
  is_vital call and per `minorkit dp` or `vital` command (`--max-nodes`),
  4.5 s on the corner-to-corner paths of a 7x7 grid; and afresh per
  exact_treewidth call, across all its widths, 6.4 s on a random graph of
  25 vertices (p = 0.2);
- MINOR_NODE_BUDGET = 10**7 branch-set extensions per minor search (each
  find_minor, find_rooted_minor, find_red_minor or dense_clique_minor call,
  and each bidim order), 54 s on K5 in the Wagner graph glued to a 4x4 grid;
- STATE_BUDGET = 200_000 folio DP states per DP run (one per open group
  of candidates with the same vertex count and root map; each maximal
  realized mask of a state counts), 0.6 s on a 4x6 grid rooted at two
  corners at detail 3;
- CANONICAL_NODE_BUDGET = 100_000 tree nodes per canonical form, about
  7-16 s at the 6-14k nodes/s measured on graphs of 20-40 vertices.
Four caps stay; each bounds an object built before any search, not a
search: MULTISET_CAP = 4096 ordered root tuples, |annotated|^k, per
kd_folio or strongly_irrelevant call (charged as a Budget, and counted the
same way by strongly_irrelevant, which tests only the sorted tuples);
folios.ORACLE_DETAIL_CAP and ORACLE_ROOT_CAP, which bound the pattern
lattice; and constructions.GADGET_ORDER_CAP, the largest order gadget
generation enumerates (GenerationCapExceeded). SearchCapExceeded means the
two oracle caps, a search deeper than the recursion limit, or, from
verify_hk_deletion, only its k <= 2 guard.
"""

from dataclasses import dataclass

NODE_BUDGET = 10**6
MINOR_NODE_BUDGET = 10**7
STATE_BUDGET = 200_000
CANONICAL_NODE_BUDGET = 100_000
MULTISET_CAP = 4096


@dataclass(slots=True)
class Budget:
    """A work limit: `limit` units, `what` names the units, `used` so far."""

    limit: int
    what: str
    used: int = 0

    def charge(self, n=1):
        """Use n more units; BudgetExceeded once the total passes the limit."""
        self.used += n
        if self.used > self.limit:
            exc = BudgetExceeded(f"{self.what}: {self.used} past the budget of {self.limit}")
            exc.budget = self
            raise exc


class MinorkitError(Exception):
    """Base class for all library errors."""


class SelfLoop(MinorkitError):
    """An edge joins a vertex to itself."""


class IndexOutOfRange(MinorkitError):
    """A vertex index is outside [0, n)."""


class PreconditionViolated(MinorkitError):
    """An operation's documented precondition does not hold."""


class SearchCapExceeded(MinorkitError):
    """An exact search was asked to run beyond a fixed cap or the recursion
    limit; see the module docstring for which."""


class BudgetExceeded(MinorkitError):
    """A Budget ran out; `budget` says whose, its limit and how far it got."""


class RootCountMismatch(MinorkitError):
    """Two rooted graphs disagree on the number of roots."""


class InvalidEmbedding(MinorkitError):
    """A rotation system fails validation or is not genus zero."""


class InvalidDecomposition(MinorkitError):
    """A tree decomposition fails validation."""


class InvalidLinkage(MinorkitError):
    """A claimed linkage does not validate in its host graph."""


class CertificateNotFound(MinorkitError):
    """No treewidth certificate of the requested kind was found."""


class NotTight(MinorkitError):
    """A well operation requires tight cycles and the input is not tight."""


class ParameterTooSmall(MinorkitError):
    """A generator parameter is below its documented minimum."""


class GenerationCapExceeded(MinorkitError):
    """Exhaustive generation was asked to go beyond its feasible range."""


class FamilyTooSmall(MinorkitError):
    """A gadget family has fewer members than the construction needs."""


class VitalityValidationFailed(MinorkitError):
    """A construction's witness linkage provably failed its vitality check."""


class CliqueTooSmall(MinorkitError):
    """A clique minor model is below the order the reduction rule requires."""


class UsageError(MinorkitError):
    """Bad command line arguments."""
