"""The library's two refusal types and the two checks that raise on a size.

``_check_cap`` refuses a size above one of the fixed MAX_* caps with a
CapExceededError; ``_check_least`` refuses a size below its floor with a
ValueError worded ``NAME must be at least K, got V``.  A module of its
own, so that every topic module raises them without importing the S_n
module, and ``cli`` catches them without importing any topic module.
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


def _check_least(value: int, least: int, what: str) -> None:
    if value < least:
        raise ValueError(f"{what} must be at least {least}, got {value}")
