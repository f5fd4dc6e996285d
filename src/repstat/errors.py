"""The library's two refusals, shared by every topic module and the CLI.

A module of its own, so that ``qseries`` and ``kirillov`` raise them
without importing the S_n module, and ``cli`` catches them without
importing any topic module.
"""


class IntegrityError(RuntimeError):
    """An exact identity that must hold by theorem failed; indicates a bug."""


class CapExceededError(RuntimeError):
    """A request exceeded one of the library's fixed size caps.

    Every cap is a MAX_* constant of the module that checks it; none can
    be raised by the caller.  The message names the input, the size asked
    for and the cap it exceeded.
    """


def _check_cap(value: int, cap: int, what: str) -> None:
    if value > cap:
        raise CapExceededError(f"{what}={value} exceeds the cap {cap}")
