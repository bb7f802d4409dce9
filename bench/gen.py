"""Seeded synthetic inputs for the semsr benchmark.

Writes three files into an output directory:

  sessions.jsonl   {"session_id", "user_id", "items"} per line
  items.jsonl      item metadata {"id", "title", "brand", "category", "price"}
  semantic.semb    SEMB1 export: rows for the items that survive semsr's
                   min_item_freq / min_session_len filtering, in the
                   catalog's dense-index order (ascending id)

Items have Zipf popularity and belong to semantic clusters; a session's
next item comes from the current item's cluster with probability
`P_SAME`, otherwise from the whole catalog, so a model that uses the
semantic view can beat popularity. The same seed and shape give
byte-identical files.

    python3 bench/gen.py --shape catalog --seed 1 --out bench/work/data
"""

import argparse
import json
import struct
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

MIN_ITEM_FREQ = 2
MIN_SESSION_LEN = 2
MIN_LEN = 2  # shortest generated session
ZIPF = 0.6  # popularity exponent
P_SAME = 0.8  # chance the next item stays in the current item's cluster
NOISE = 0.5  # item offset from its cluster centroid
_ROW_CHUNK = 2048

_ADJECTIVES = ("red", "compact", "classic", "premium", "light", "sturdy", "soft", "smart")
_NOUNS = ("lamp", "kettle", "jacket", "speaker", "backpack", "novel", "sneaker", "camera",
          "blender", "watch", "tent", "mug", "keyboard", "scarf", "drill", "puzzle")


@dataclass(frozen=True)
class Shape:
    items: int  # raw catalog size; n after filtering is a little smaller
    sessions: int
    max_len: int
    d2: int
    clusters: int


SHAPES = {
    # n≈4k, long sessions: the semantic attention at width d2 dominates
    "fusion": Shape(items=4100, sessions=6000, max_len=20, d2=1024, clusters=40),
    # n≈20k, short sessions: the dense (n, d) item side dominates
    "catalog": Shape(items=21000, sessions=30000, max_len=10, d2=1024, clusters=100),
}


def item_id(j: int) -> str:
    return f"item{j:06d}"


def _draw(cum: np.ndarray, u: float) -> int:
    return int(np.searchsorted(cum, u * cum[-1], side="right"))


def make_sessions(shape: Shape, rng: np.random.Generator):
    """(sessions as lists of raw item indices, user ids, cluster of each item)."""
    n = shape.items
    cluster = rng.integers(0, shape.clusters, size=n)
    weight = 1.0 / (rng.permutation(n) + 1.0) ** ZIPF
    global_cum = np.cumsum(weight)
    members = [np.flatnonzero(cluster == c) for c in range(shape.clusters)]
    member_cum = [np.cumsum(weight[m]) for m in members]

    lengths = rng.integers(MIN_LEN, shape.max_len + 1, size=shape.sessions)
    total = int(lengths.sum())
    u_item = rng.random(total)
    u_stay = rng.random(total)
    users = rng.integers(0, int(shape.sessions * 0.6), size=shape.sessions)
    sessions = []
    pos = 0
    for length in lengths:
        seq = [_draw(global_cum, u_item[pos])]
        for t in range(1, length):
            if u_stay[pos + t] < P_SAME:
                c = cluster[seq[-1]]
                seq.append(int(members[c][_draw(member_cum[c], u_item[pos + t])]))
            else:
                seq.append(_draw(global_cum, u_item[pos + t]))
        pos += length
        sessions.append(seq)
    return sessions, users, cluster


def surviving_items(sessions) -> list[int]:
    """The items semsr's preprocess keeps: the fixed point of dropping rare
    items and short sessions."""
    current = [s for s in sessions if len(s) >= MIN_SESSION_LEN]
    while True:
        freq = np.bincount(np.concatenate([np.asarray(s) for s in current]))
        nxt = []
        changed = False
        for s in current:
            kept = [i for i in s if freq[i] >= MIN_ITEM_FREQ]
            changed |= len(kept) != len(s)
            if len(kept) >= MIN_SESSION_LEN:
                nxt.append(kept)
        current = nxt
        if not changed:
            return sorted({i for s in current for i in s})


def generate(shape: Shape, seed: int, out_dir) -> dict:
    """Write the three input files; return a summary with n after filtering."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    sessions, users, cluster = make_sessions(shape, rng)

    with (out / "sessions.jsonl").open("w") as fh:
        for s, (seq, user) in enumerate(zip(sessions, users)):
            rec = {"session_id": f"s{s}", "user_id": f"u{user}", "items": [item_id(j) for j in seq]}
            fh.write(json.dumps(rec) + "\n")

    prices = np.round(rng.uniform(1.0, 200.0, size=shape.items), 2)
    with (out / "items.jsonl").open("w") as fh:
        for j in range(shape.items):
            c = int(cluster[j])
            rec = {
                "id": item_id(j),
                "title": f"{_ADJECTIVES[j % len(_ADJECTIVES)]} {_NOUNS[c % len(_NOUNS)]} c{c} no.{j}",
                "brand": f"brand{j % 50}",
                "category": f"category{c}",
                "price": float(prices[j]),
            }
            fh.write(json.dumps(rec) + "\n")

    kept = surviving_items(sessions)
    centroids = rng.standard_normal((shape.clusters, shape.d2), dtype=np.float32)
    centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)
    with (out / "semantic.semb").open("wb") as fh:
        fh.write(b"SEMB1" + struct.pack("<QQ", len(kept), shape.d2))
        for start in range(0, len(kept), _ROW_CHUNK):
            rows_idx = np.asarray(kept[start : start + _ROW_CHUNK])
            noise = rng.standard_normal((rows_idx.size, shape.d2), dtype=np.float32)
            rows = centroids[cluster[rows_idx]] + NOISE * noise / np.sqrt(shape.d2)
            rows /= np.linalg.norm(rows, axis=1, keepdims=True)
            fh.write(rows.astype("<f4").tobytes())

    return {
        "shape": asdict(shape),
        "seed": seed,
        "min_item_freq": MIN_ITEM_FREQ,
        "n_raw": shape.items,
        "n": len(kept),
        "sessions": len(sessions),
        "items_in_sessions": int(sum(len(s) for s in sessions)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--shape", choices=sorted(SHAPES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    info = generate(SHAPES[args.shape], args.seed, args.out)
    print(json.dumps(info, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
