"""REP000 good fixture: a justified single-rule suppression is honoured."""

import numpy  # repro: noqa REP001 -- fixture exercising a justified suppression


def zeros(n):
    return numpy.zeros(n)
