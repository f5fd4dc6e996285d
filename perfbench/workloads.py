"""Seeded workload generator for the repstat benchmark.

Each workload is a fixed list of ``repstat`` invocation templates.  A
template is a tuple whose parts are either literal argv words or a
``Choice`` between alternative word groups.  The seed picks one
alternative per choice and the order of the invocations; it never
changes a size, so every seed asks the program for the same amount of
work and two seeds differ only in inputs.

Every argv the generator can emit is listed by ``all_argvs``; the output
checker holds a reference for each of them.
"""

from __future__ import annotations

import itertools
import random


class Choice(tuple):
    """Alternatives for one slot of a template; each is a tuple of words."""


def _words(*groups: str) -> Choice:
    return Choice(tuple(g.split()) for g in groups)


# Sizes are fixed so one untraced pass takes about 2.5 to 5 s on a 2-CPU
# machine with Python 3.11, and a run holds five to ten passes; README.md
# says why each invocation is here and which heavier cases are left out.
WORKLOADS: dict[str, tuple[tuple, ...]] = {
    "sym-tables": (
        ("sym", "sweep", "--n", "38"),
        ("sym", "sweep", "--n", "34", "--format", "json"),
        ("sym", "hist", "--n", "34", "--bins", "50", _words("--what dim", "--what dimsq", "--what class")),
        ("sym", "layers", "--n", "32"),
        ("sym", "maxdim", "--nmax", "28"),
        ("sym", "intervals", "--n", "34",
         _words("--alpha 0.3 --beta 0.7", "--alpha 0.2 --beta 0.6",
                "--alpha 0.4 --beta 0.8", "--alpha 0.25 --beta 0.75")),
        ("sym", "angle", "--nmax", "40"),
    ),
    "gl-polys": (
        ("gl", "ratio", "--nmax", "40", _words("--q 2", "--q 3", "--q 4", "--q 5", "--q 7")),
        ("gl", "classes", "--nmax", "60"),
        ("gl", "gow", "--nmax", "40"),
        ("gl", "order", "--nmax", "30"),
        ("gl", "gauss", "--order", "500"),
        ("gl", "census", _words("--q 2", "--q 3", "--q 4", "--q 5", "--q 7", "--q 8", "--q 9")),
    ),
    "orbit": (
        ("kirillov", "--alg", "ut4", "--p", "5"),
        ("kirillov", "--alg", "heis3", "--p", "23"),
        ("kirillov", "--alg", "heis3", "--p", "29"),
    ),
    "plancherel": (
        ("sym", "plancherel", "--n", "1000", "--count", "500",
         _words(*(f"--seed {s}" for s in (11, 23, 37, 41, 59, 73)))),
        ("sym", "plancherel", "--n", "200", "--count", "2500",
         _words(*(f"--seed {s}" for s in (5, 17, 29, 43, 61, 79)))),
    ),
}


def _expand(template: tuple, pick) -> list[str]:
    argv: list[str] = []
    for part in template:
        argv.extend(pick(part) if isinstance(part, Choice) else (part,))
    return argv


def generate(workload: str, seed: int) -> list[list[str]]:
    """The argv list one pass of ``workload`` runs, as a pure function of ``seed``."""
    templates = WORKLOADS[workload]
    # A string seed is hashed with SHA-512, so the stream does not depend
    # on PYTHONHASHSEED or the platform.
    rng = random.Random(f"repstat-bench:{workload}:{seed}")
    argvs = [_expand(t, rng.choice) for t in templates]
    rng.shuffle(argvs)
    return argvs


def all_argvs(workload: str) -> list[list[str]]:
    """Every argv ``generate`` can emit for ``workload``, without repeats."""
    out = []
    for template in WORKLOADS[workload]:
        choices = [part for part in template if isinstance(part, Choice)]
        for combo in itertools.product(*choices):
            it = iter(combo)
            out.append(_expand(template, lambda _part: next(it)))
    return out
