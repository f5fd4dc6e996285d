"""Oracles for the S_n tables in repstat.symstats that read whole levels."""


def max_dimension(records):
    """Largest dimension in the level records = sweep(n) and every partition attaining it, in level order.

    The attaining set is closed under conjugation since dim is invariant
    under transposing the diagram.
    """
    best = 0
    argmax = []
    for rec in records:
        if rec.dim > best:
            best = rec.dim
            argmax = [rec.lam]
        elif rec.dim == best:
            argmax.append(rec.lam)
    return best, argmax
