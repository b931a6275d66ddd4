"""Shared exception types, and the work budgets of the bounded searches.

Every loud failure mode in the library is one of six types; nothing
silently truncates a search. `minorkit` maps each to an exit code:
- PreconditionViolated, exit 2: bad input (a self-loop, a vertex out of
  range, a malformed file, a parameter below its minimum, ...);
- BudgetExceeded, exit 3: a search spent its work budget;
- SearchCapExceeded, exit 3: a search or generation passed a fixed cap or
  the recursion limit;
- CertificateNotFound, exit 2: no treewidth certificate of the asked kind;
- VitalityValidationFailed, exit 2: a construction's own check failed;
- MinorkitError, exit 2: the base class of the five.

A search is bounded by the work it does, not by the
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
  realized mask of a state counts), 0.9 s on a 4x6 grid rooted at two
  corners at detail 3;
- CANONICAL_NODE_BUDGET = 100_000 tree nodes per canonical form, about
  7-16 s at the 6-14k nodes/s measured on graphs of 20-40 vertices.
Four caps stay; each bounds an object built before any search, not a
search: MULTISET_CAP = 4096 ordered root tuples, |annotated|^k, per
kd_folio or strongly_irrelevant call (charged as a Budget, and counted the
same way by strongly_irrelevant, which tests only the sorted tuples);
folios.ORACLE_DETAIL_CAP and ORACLE_ROOT_CAP, which bound the pattern
lattice; and constructions.GADGET_ORDER_CAP, the largest order gadget
generation enumerates. SearchCapExceeded means the two oracle caps, the
gadget cap, a search deeper than the recursion limit, or, from
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


class PreconditionViolated(MinorkitError):
    """Bad input: an operation's documented precondition does not hold."""


class BudgetExceeded(MinorkitError):
    """A Budget ran out; `budget` says whose, its limit and how far it got."""


class SearchCapExceeded(MinorkitError):
    """An exact search or generation was asked to run beyond a fixed cap or
    the recursion limit; see the module docstring for which."""


class CertificateNotFound(MinorkitError):
    """No treewidth certificate of the requested kind was found."""


class VitalityValidationFailed(MinorkitError):
    """A construction's witness linkage provably failed its vitality check."""
