"""Shared fixture builders for the test suite."""

import http.client
import http.server
import socket
import threading
from contextlib import contextmanager

import numpy as np

from semsr import model
from semsr.dataset import Catalog, Example, ItemMeta, Sessions
from semsr.embeddings import SemanticItemTable, encode_text, pseudo_semantic_table


def make_catalog(n: int, tag: str = "t") -> Catalog:
    items = [
        ItemMeta(id=f"item-{tag}-{j}", title=f"product {tag} {j}", brand=f"brand{j % 3}")
        for j in range(n)
    ]
    return Catalog(items=items)


def make_sessions(seqs, split: str | None = None, ids=None, users=None) -> Sessions:
    """The indexed table of `seqs`, lists of catalog indices: session i is
    named ids[i] (default "s<i>") and belongs to users[i] (default None)."""
    return Sessions(
        ids=list(ids or (f"s{i}" for i in range(len(seqs)))), users=list(users or [None] * len(seqs)),
        items=np.array([i for seq in seqs for i in seq], dtype=np.int64),
        offsets=np.cumsum([0, *map(len, seqs)], dtype=np.int64), split=split,
    )


def tree(root) -> dict:
    """Every entry under `root`, dot-prefixed ones included: a file's bytes,
    or None for a directory."""
    return {p: p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


def make_semantic(catalog: Catalog, d2: int) -> SemanticItemTable:
    return pseudo_semantic_table(catalog, d2)


def clustered_semantic(n: int, n_clusters: int, d2: int, noise: float, tag: str = "c") -> tuple[SemanticItemTable, np.ndarray]:
    """Semantic vectors = unit(cluster centroid + noise * item vector), both
    drawn from the deterministic text encoder. Returns (table, cluster ids)."""
    assert n % n_clusters == 0
    clusters = np.repeat(np.arange(n_clusters), n // n_clusters)
    centroids = np.stack([encode_text(f"cluster {tag} {c}", d2) for c in range(n_clusters)])
    rows = []
    for j in range(n):
        v = centroids[clusters[j]] + noise * encode_text(f"item {tag} {j}", d2)
        rows.append(v / np.linalg.norm(v))
    return SemanticItemTable(matrix=np.stack(rows)), clusters


def random_examples(rng: np.random.Generator, n_items: int, count: int, max_len: int = 6) -> list[Example]:
    out = []
    for _ in range(count):
        length = int(rng.integers(1, max_len + 1))
        prefix = [int(x) for x in rng.integers(0, n_items, size=length)]
        out.append(Example(prefix=prefix, target=int(rng.integers(0, n_items))))
    return out


def count_item_side_builds(monkeypatch) -> list[str]:
    """Wrap model's two item-side builders so each call appends its name to
    the returned list."""
    calls = []
    for name in ("fused_item_matrix", "normalized_item_matrix"):
        def counted(*args, _name=name, _build=getattr(model, name)):
            calls.append(_name)
            return _build(*args)

        monkeypatch.setattr(model, name, counted)
    return calls


@contextmanager
def serving(body: bytes):
    """An HTTP server on 127.0.0.1 that answers every POST with status 200
    and `body`. Yields (url, requests), where `requests` is a list that gets
    one entry per request served."""
    requests = []

    class Reply(http.server.BaseHTTPRequestHandler):
        def do_POST(self):
            requests.append(self.rfile.read(int(self.headers["Content-Length"])))
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = http.server.HTTPServer(("127.0.0.1", 0), Reply)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}/", requests
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


@contextmanager
def raw_serving(reply: bytes):
    """A TCP server on 127.0.0.1 that reads each connection's HTTP request,
    answers it with the raw bytes `reply` (which need not be HTTP) and
    closes it. Yields (url, connections), where `connections` is a list
    that gets one entry per connection accepted."""
    connections, stop = [], threading.Event()
    server = socket.create_server(("127.0.0.1", 0))
    server.settimeout(0.05)

    def answer() -> None:
        while not stop.is_set():
            try:
                conn, peer = server.accept()
            except TimeoutError:
                continue
            connections.append(peer)
            conn.settimeout(10)
            with conn, conn.makefile("rb") as request:
                request.readline()  # the request line
                request.read(int(http.client.parse_headers(request).get("Content-Length", 0)))
                conn.sendall(reply)

    thread = threading.Thread(target=answer, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.getsockname()[1]}/", connections
    finally:
        stop.set()
        thread.join(timeout=10)
        server.close()
