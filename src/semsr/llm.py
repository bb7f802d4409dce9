"""LLM-as-recommender baselines.

Three prompting strategies produce a next-item title, which is resolved
to catalog items by cosine retrieval over a title-embedding index:

  fs     one-step few-shot prompt
  zcot   two-step zero-shot chain of thought (rationale, then title)
  fscot  two-step few-shot chain of thought

Prompt wording lives in plain-text templates with {{shots}}, {{session}}
and {{rationale}} placeholders, so edits do not require code changes.

Clients implement generate(system, user) -> text. MockClient replays a
JSON map keyed by prompt_hash(system, user) for deterministic tests;
HttpClient posts a chat-style request ({"messages": [...]}) and retries
with exponential backoff.
"""

import json
import os
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from functools import partial
from hashlib import sha256
from pathlib import Path
from urllib.parse import urlsplit

import numpy as np

from .dataset import Catalog, Sessions, read_json, read_text
from .embeddings import _encode_rows, encode_text
from .errors import DataError, GenerationError, check_values
from .retrieval import RankedList, VectorIndex, build_index, query

STRATEGY_KINDS = ("fs", "zcot", "fscot")
RULES = {  # {name: (test, wanted)} of the prompt baseline, for errors.check_values
    "strategy": (lambda v: v in STRATEGY_KINDS, f"one of {STRATEGY_KINDS}"),
    "shots": (lambda v: v >= 1, ">= 1"),
    "endpoint_url": (lambda v: (u := urlsplit(v)).scheme in ("http", "https") and bool(u.hostname) and u.port != 0,
                     "an http or https URL with a host (and any port in 1..65535)"),  # u.port raises past 65535
    "timeout": (lambda v: 0 < v <= threading.TIMEOUT_MAX, f"> 0 and <= {threading.TIMEOUT_MAX}"),  # a socket's limit
    "max_retries": (lambda v: v >= 1, ">= 1"),
}

_TEMPLATE_FILES = {
    "system": "system.txt",
    "fs": "user_fs.txt",
    "cot_step1": "user_cot_step1.txt",
    "cot_step2": "user_cot_step2.txt",
}


@dataclass
class PromptStrategy:
    kind: str
    shots: list[tuple[list[str], str]] = field(default_factory=list)

    def __post_init__(self):
        check_values(RULES, strategy=self.kind)
        if self.kind in ("fs", "fscot") and not self.shots:
            raise DataError(f"{self.kind} strategy requires at least one shot")
        if self.kind == "zcot" and self.shots:
            raise DataError("zcot strategy must not carry shots")

    @property
    def steps(self) -> int:
        return 1 if self.kind == "fs" else 2


def load_templates(directory=None) -> dict[str, str]:
    base = Path(directory) if directory else Path(__file__).parent / "templates"
    return {key: read_text(base / fname, "prompt template") for key, fname in _TEMPLATE_FILES.items()}


def _session_block(titles: list[str]) -> str:
    return "\n".join(f"{i}. {t}" for i, t in enumerate(titles, start=1))


def _shots_block(shots: list[tuple[list[str], str]]) -> str:
    if not shots:
        return ""
    blocks = ["Here are some example sessions and the item that was viewed next:", ""]
    for titles, target in shots:
        blocks.append("Session:")
        blocks.append(_session_block(titles))
        blocks.append(f"Next item: {target}")
        blocks.append("")
    return "\n".join(blocks) + "\n"


def build_prompt(
    strategy: PromptStrategy,
    session_titles: list[str],
    rationale: str | None = None,
    templates: dict[str, str] | None = None,
) -> tuple[str, str]:
    """Deterministic template fill; returns (system text, user text). With
    no rationale this is the first step; with the step-1 rationale it is
    the second, which only the chain-of-thought strategies have."""
    if not session_titles:
        raise DataError("session titles must be non-empty")
    if rationale is not None and strategy.kind == "fs":
        raise DataError("fs strategy has no second step")
    tpl = templates or load_templates()
    if strategy.kind == "fs":
        user_tpl = tpl["fs"]
    else:
        user_tpl = tpl["cot_step1"] if rationale is None else tpl["cot_step2"]
    user = (
        user_tpl.replace("{{shots}}", _shots_block(strategy.shots))
        .replace("{{session}}", _session_block(session_titles))
        .replace("{{rationale}}", rationale or "")
    )
    return tpl["system"].strip(), user.strip()


def prompt_hash(system: str, user: str) -> str:
    """Key used by MockClient replay maps."""
    return sha256((system + "\x00" + user).encode("utf-8")).hexdigest()


class MockClient:
    """Replays responses from a prompt-hash -> text map."""

    def __init__(self, responses: dict[str, str], default: str | None = None):
        self.responses = dict(responses)
        self.default = default
        self.calls = 0

    @classmethod
    def from_file(cls, path, default: str | None = None) -> "MockClient":
        responses = read_json(path, "mock response file")
        if not all(isinstance(v, str) for v in responses.values()):
            raise DataError(f"{path}: expected a JSON object mapping prompt hashes to response text")
        return cls(responses, default=default)

    def generate(self, system: str, user: str) -> str:
        self.calls += 1
        key = prompt_hash(system, user)
        if key in self.responses:
            return self.responses[key]
        if self.default is not None:
            return self.default
        raise GenerationError(f"mock client has no response for prompt hash {key[:12]}...")


def _reply_text(body) -> str:
    """The generated text of a decoded reply: its "text" when it has one, else
    choices[0].message.content. A reply without such a string is a ValueError."""
    try:
        text = body["text"] if "text" in body else body["choices"][0]["message"]["content"]
    except (TypeError, KeyError, IndexError):
        text = None
    if not isinstance(text, str):
        raise ValueError("the reply holds no string text")
    return text


class HttpClient:
    """Minimal chat-completion client for a hosted endpoint.

    Sends {"messages": [{"role": "system", ...}, {"role": "user", ...}]}
    and reads the reply from "text" or an OpenAI-style choices list. The
    auth token comes from the SEMSR_LLM_TOKEN environment variable.
    """

    def __init__(self, url: str, timeout: float = 30.0, max_retries: int = 3, backoff: float = 1.0):
        check_values(RULES, endpoint_url=url, timeout=timeout, max_retries=max_retries)
        self.url = url
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff = backoff

    def generate(self, system: str, user: str) -> str:
        payload = json.dumps(
            {"messages": [{"role": "system", "content": system}, {"role": "user", "content": user}]}
        ).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        token = os.environ.get("SEMSR_LLM_TOKEN")
        if token:
            headers["Authorization"] = f"Bearer {token}"
        last_error = None
        for attempt in range(self.max_retries):
            try:
                req = urllib.request.Request(self.url, data=payload, headers=headers)
                with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                    return _reply_text(json.loads(resp.read().decode("utf-8")))
            except (urllib.error.URLError, TimeoutError, ValueError) as exc:  # ValueError: not UTF-8, JSON or a reply
                last_error = exc
                if attempt + 1 < self.max_retries:
                    time.sleep(self.backoff * (2**attempt))
        raise GenerationError(f"generation failed after {self.max_retries} attempts: {last_error}")


def build_fewshot_strategy(
    kind: str,
    train_sessions: Sessions,
    catalog: Catalog,
    n_shots: int = 3,
    seed: int = 0,
) -> PromptStrategy:
    """Sample few-shot examples from the training split (seeded). Each shot
    is (all-but-last titles, last title)."""
    check_values(RULES, strategy=kind, shots=n_shots)
    if kind == "zcot":
        return PromptStrategy(kind="zcot")
    usable = np.flatnonzero(train_sessions.lengths >= 2)
    if not usable.size:
        raise DataError("no training sessions available for few-shot examples")
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(usable), size=min(n_shots, len(usable)), replace=False)
    shots = []
    for i in sorted(int(p) for p in picks):
        s = train_sessions[usable[i]]
        shots.append(([catalog.title(j) for j in s.items[:-1]], catalog.title(s.items[-1])))
    return PromptStrategy(kind=kind, shots=shots)


def build_title_index(catalog: Catalog, width: int, encoder=None) -> VectorIndex:
    """Cosine index over item titles, embedded with the same encoder that
    will embed generated titles at query time. Titles fill one array at the
    first title's width, which build_index normalizes in place; a title of
    another width is a DataError naming its item."""
    encoder = encoder or partial(encode_text, d2=width)
    return build_index(_encode_rows(catalog.items, lambda m: encoder(m.title)))


def recommend_via_llm(
    session_items: list[int],
    catalog: Catalog,
    client,
    strategy: PromptStrategy,
    index: VectorIndex,
    k: int,
    encoder=None,
    templates: dict[str, str] | None = None,
) -> RankedList:
    """Generate a next-item title and resolve it against the title index.

    Generation failures propagate as GenerationError; the result always
    has exactly k entries."""
    titles = [catalog.title(i) for i in session_items]
    encoder = encoder or partial(encode_text, d2=index.width)
    templates = templates or load_templates()
    system, user = build_prompt(strategy, titles, templates=templates)
    text = client.generate(system, user)
    if strategy.steps == 2:
        rationale = text.strip()
        if not rationale:
            raise GenerationError("empty rationale from step 1")
        system, user = build_prompt(strategy, titles, rationale=rationale, templates=templates)
        text = client.generate(system, user)
    title = text.strip()
    if not title:
        raise GenerationError("empty generated title")
    return query(index, encoder(title), k)
