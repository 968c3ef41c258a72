"""Helpers shared by the test modules: a Gram form, characteristic data and
constant grids as reduced rational functions."""

from parahiggs.poly import RationalFunction


def gram_matrix(gram):
    """B of a Gram form as reduced rational functions."""
    b, d = gram.cleared
    return [[RationalFunction.from_ints(p, d) for p in row] for row in b]


def sections(char):
    """s_1..s_r of the characteristic data as reduced rational functions."""
    return [RationalFunction.from_ints(e, q) for e, q in zip(char.e, char.den_powers)]


def scalars(rows):
    """A grid of rational scalars as constant rational functions."""
    return [[RationalFunction.make(x) for x in row] for row in rows]
