"""Shared exception types."""


class ValidationError(ValueError):
    """A machine spec, recipe, or run configuration violates an invariant."""


class StuckError(RuntimeError):
    """A pushdown run hit an undefined bit transition.

    Attributes:
        position: 0-based index of the input bit that had no transition.
        state: state the machine was in.
        top: stack-top symbol at that point.
        partial_output: bits emitted before getting stuck.
    """

    def __init__(self, position: int, state: int, top: str, partial_output: str):
        super().__init__(
            f"stuck at input position {position}: no transition from "
            f"state {state} on stack top '{top}'"
        )
        self.position = position
        self.state = state
        self.top = top
        self.partial_output = partial_output


class UnreachableError(StuckError):
    """No machine with a description of at most k bits outputs the target.

    position is the target's length; there is no state, stack top or
    partial output.
    """

    def __init__(self, k: int, length: int):
        super().__init__(length, 0, "-", "")
        self.args = (f"unreachable: no machine of <= {k} bits outputs this prefix",)
