"""Toolkit for building and scoring sentence-simplification corpora.

Pairs trusted sentences with back-translations of their bridge-language
counterparts, filters the pairs with BLEU and reading-ease selectors, and
labels the easier side of each surviving pair as the simple one. Also
implements the evaluation metrics (SARI, FKGL, reading ease, BLEU) used to
score simplification corpora and system outputs.
"""

from .metrics import (
    EvalReport,
    SariBreakdown,
    corpus_bleu,
    corpus_fkgl,
    corpus_fres,
    evaluate,
    fkgl,
    fres,
    sari,
    sentence_bleu,
)
from .pipeline import (
    CorpusStats,
    DropTally,
    LabeledPair,
    SelectorConfig,
    SentencePair,
    SimplificationCorpus,
    ablate,
    bleu_selector,
    build_corpus,
    fres_selector,
    generate_pseudo_pairs,
    subset,
)
from .textprep import (
    PROFILES,
    LanguageProfile,
    TextStats,
    TokenizedText,
    count_syllables,
    get_profile,
    split_sentences,
    text_stats,
    tokenize_metric,
    tokenize_words,
)

__version__ = "0.1.0"
