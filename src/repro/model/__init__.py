"""Pure-numpy transformer LM substrate (the paper's LLaMA/OPT stand-in)."""

from repro.model.transformer import ModelConfig, TransformerLM, init_params, param_count
from repro.model.corpus import HmmCorpus, InductionCorpus, MixedCorpus
from repro.model.train import Adam, train_lm, TrainReport
from repro.model.perplexity import perplexity_from_rows, evaluate_ppl
from repro.model.outliers import inject_outliers, outlier_channel_stats
from repro.model.quantized import PTQConfig, PTQSetup, build_ptq
from repro.model.calibrate import calibrate_model
from repro.model.tasks import RecallTask, ContinuationTask, token_f1, bleu
from repro.model.zoo import MODEL_ZOO, ZooEntry, get_model, get_corpus

__all__ = [
    "ModelConfig",
    "TransformerLM",
    "init_params",
    "param_count",
    "HmmCorpus",
    "InductionCorpus",
    "MixedCorpus",
    "Adam",
    "train_lm",
    "TrainReport",
    "perplexity_from_rows",
    "evaluate_ppl",
    "inject_outliers",
    "outlier_channel_stats",
    "PTQConfig",
    "PTQSetup",
    "build_ptq",
    "calibrate_model",
    "RecallTask",
    "ContinuationTask",
    "token_f1",
    "bleu",
    "MODEL_ZOO",
    "ZooEntry",
    "get_model",
    "get_corpus",
]
