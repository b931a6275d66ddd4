"""Shared exception types, and the work budgets of the bounded searches.

Every loud failure mode in the library is one of these. Budget and cap
overruns always raise; nothing silently truncates a search. Each bounded
search charges a Budget; the defaults, all here, are
- NODE_BUDGET linkage search nodes per count_linkages, disjoint_paths or
  is_vital call, and per `minorkit dp` or `vital` command (`--max-nodes`);
- STATE_BUDGET folio DP states per DP run (one run per open candidate);
- CANONICAL_NODE_BUDGET canonical search tree nodes per canonical form;
- MULTISET_CAP root multisets per kd_folio or strongly_irrelevant call.
"""

from dataclasses import dataclass

NODE_BUDGET = 10**6
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
    """An exact search was asked to run beyond its configured cap."""


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


class TerminalNotOnBoundary(MinorkitError):
    """A pattern terminal is not on the boundary cycle it must lie on."""


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
