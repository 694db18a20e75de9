"""Sentence-pair similarity and relation models on fused word embeddings.

The package is organized as a library:

* ``numcore``     dense float64 primitives with reverse-mode gradients
* ``rng``         named, counter-based random streams
* ``embeddings``  word-vector tables, fusion, OOV handling, coverage
* ``encoder``     multi-aspect word features; max-pool + LSTM sentence encoders
* ``comparison``  word-word / sentence-sentence / word-sentence comparison head
* ``objectives``  the one KL loss: sparse score targets, one-hot class targets
* ``model``       parameter container and end-to-end pair forward passes
* ``training``    AdaDelta, mini-batch loop, checkpoints
* ``evaldata``    pair datasets, tokenizer, Pearson/accuracy/F1
* ``gradcheck``   staged whole-model gradient verification
* ``cli``         train / eval / score / gradcheck / coverage / bench commands
"""

__version__ = "0.1.0"
