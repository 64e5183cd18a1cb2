"""The generators y and y^2 on triples, the reference action for the tests.

The engine steps y and y^2 inline (the successor walk and the invariance
audit), so only the tests build these images one triple at a time; x is
core.x_triple.  With alpha = (a + sqrt(n))/c: y: alpha -> (alpha - 1)/alpha
and y^2: alpha -> -1/(alpha - 1).
"""


def y_triple(t):
    a, b, c = t
    return (b - a, b - 2 * a + c, b)


def yy_triple(t):
    a, b, c = t
    return (c - a, c, b - 2 * a + c)
