"""REP002 good fixture: a local mask is built, then read off the table."""


def live_rows(index, removed):
    live = bytearray(index.live)
    for tid in removed:
        live[tid] = 0
    return [row for row, bit in zip(index.rows, live) if bit]
