"""Float sums that give the same bits on every supported Python version."""


def left_sum(xs):
    """The numbers in ``xs`` added left to right from 0.0.

    This is ``sum(xs)`` over floats up to Python 3.11. From 3.12 on,
    ``sum()`` compensates its rounding, so its last bits can differ.
    """
    total = 0.0
    for x in xs:
        total += x
    return total
