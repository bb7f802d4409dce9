"""semsr: session-based recommendation with frozen semantic item embeddings
fused into a trainable sequence model, plus an LLM-prompting baseline and a
Recall/MRR evaluation harness."""

from .dataset import (
    Catalog,
    Example,
    ItemMeta,
    Session,
    expand_incremental,
    ingest_sessions,
    preprocess,
    split_by_user,
)
from .embeddings import (
    Projection,
    SemanticItemTable,
    encode_text,
    fit_projection,
    load_semantic_table,
    pseudo_encode,
)
from .encoder import register_backbone
from .errors import DataError, GenerationError, NumericError, SemsrError
from .metrics import EvalResult, evaluate, recall_at_k, rr_at_k
from .model import ModelParams, init_model, load_checkpoint, save_checkpoint, score_all
from .retrieval import RankedList, VectorIndex, build_index, query, rerank, top_k
from .train import AdamState, LossReport, adam_step, fit, init_adam, loss_and_grad

__version__ = "0.1.0"
