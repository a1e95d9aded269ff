"""Call-graph shape fixtures: cycles, dispatch, modern syntax.

Analyzer fixture; never imported.  Everything here is determinism- and
hotpath-clean — the file exists so the call-graph tests have known
shapes to assert against.
"""


def countdown(n: int) -> int:
    # Direct recursion: a one-node cycle.
    if n <= 0:
        return 0
    return countdown(n - 1)


def ping(n: int) -> int:
    # Mutual recursion: a two-node cycle.
    if n <= 0:
        return 0
    return pong(n - 1)


def pong(n: int) -> int:
    if n <= 0:
        return 1
    return ping(n - 1)


async def async_step(budget: int) -> int:
    # async def functions are ordinary call-graph nodes.
    if (remaining := budget - 1) > 0:  # walrus inside an async body
        return await async_step(remaining)
    return countdown(budget)


def dispatch_shape(kind: str) -> int:
    # match statements are walked like any other compound statement.
    match kind:
        case "ping":
            return ping(3)
        case "pong":
            return pong(3)
        case _:
            return countdown(3)


class AluPort:
    def issue(self, op: int) -> int:
        return op + 1


class MemPort:
    def issue(self, op: int) -> int:
        return op + 2


def dynamic_dispatch(port, op: int) -> int:
    # `port.issue` resolves to BOTH definitions above — the
    # conservative fallback links every same-name candidate.
    return port.issue(op)


def escape_reference() -> object:
    # `countdown` escapes as a value: not a call, so no edge.
    return countdown
