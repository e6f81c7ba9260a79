"""REP002 bad fixture: three flips of a published table's live mask."""


def forget(index, tid):
    index.live[tid] = 0
    index.live.extend(b"\x01")
    index.live = bytearray(len(index.rows))
