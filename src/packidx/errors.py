"""Exception types shared across the toolkit.

Every domain error derives from :class:`PackError` and exposes a stable
``kind`` tag (the class name without the ``Error`` suffix) that reports and
the CLI use verbatim.
"""

from __future__ import annotations


class PackError(Exception):
    @property
    def kind(self) -> str:
        name = type(self).__name__
        return name[:-5] if name.endswith("Error") else name


class GroupSyntaxError(PackError):
    """Group-DSL text does not parse; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ElementSyntaxError(PackError):
    """Element text does not match the group's coordinate syntax."""


class GroupMismatchError(PackError):
    """Operands belong to different group specs."""


class EmptySetError(PackError):
    """Operation requires a nonempty element set."""


class WindowTooLargeError(PackError):
    """Window enumeration exceeds the configured resource limit (``size`` None: not counted)."""

    def __init__(self, size: int | None, limit: int):
        count = f"more than {limit}" if size is None else size
        super().__init__(f"window has {count} elements, limit is {limit}")
        self.size = size
        self.limit = limit


class FiniteGroupError(PackError):
    """A construction defined only for infinite groups got a finite one."""


class ExceptionalGroupError(PackError):
    """The requested index value is unattainable in this group family."""


class NoCarrierError(PackError):
    """No declared factor provides the generators the construction needs."""


class PreconditionError(PackError):
    """An operation's stated precondition does not hold for the arguments."""


class NotApplicableError(PackError):
    """The group lies outside the family an operation covers."""


class CandidateExhaustedError(PackError):
    """Greedy construction ran out of candidates after all ambient expansions."""


class PropertyThreeViolatedError(PackError):
    """Greedy construction stalled in a finite group where covering can occur."""


class PropertyCheckFailedError(PackError):
    """A constructed set failed one of its defining property checks."""


class CertificationError(PackError):
    """A solver's answer or an extension step's family failed its certificate."""


class SearchBudgetExceededError(PackError):
    """Backtracking search hit its configured node budget before finishing;
    ``depth`` is the deepest level it reached, counting the last node."""

    def __init__(self, nodes: int, budget: int, depth: int):
        super().__init__(f"search visited {nodes} nodes, budget is {budget}")
        self.nodes = nodes
        self.budget = budget
        self.depth = depth
