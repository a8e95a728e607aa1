"""Subword-tokenized shallow sequence taggers for low-resource NER."""

from .alignment import ClubbingStrategy, club_labels, propagate_labels
from .corpus import (
    LabeledCorpus,
    LabeledSentence,
    LabelSet,
    SynthConfig,
    build_label_set,
    corpus_stats,
    generate_synthetic,
    parse_conll,
    write_conll,
)
from .metrics import EvalReport, decode_spans, evaluate, token_confusion, token_metrics
from .taggers import (
    Hyperparams,
    TaggerModel,
    TrainConfig,
    build_model,
    count_params,
    load_checkpoint,
    predict_sentence,
    save_checkpoint,
    train,
)
from .tokenizers import (
    SubwordEncoding,
    Vocab,
    VocabSegmenter,
    build_word_vocab,
    fertility_stats,
    load_external_segmentation,
    load_vocab,
    segment_sentence,
    wordpiece_word,
)

__version__ = "0.1.0"
