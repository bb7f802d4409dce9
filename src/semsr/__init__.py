"""semsr: session-based recommendation with frozen semantic item embeddings
fused into a trainable sequence model, plus an LLM-prompting baseline and a
Recall/MRR evaluation harness. Names are imported from their submodules
(semsr.dataset, semsr.model, semsr.train, ...)."""

__version__ = "0.1.0"
