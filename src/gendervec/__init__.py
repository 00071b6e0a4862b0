"""Count-based word embeddings with a grammatical-gender probe.

The package goes from raw text to a judged classifier in small steps:
tokenize and count (:mod:`gendervec.corpus`), build windowed
co-occurrence counts (:mod:`gendervec.cooccurrence`), factor them into
low-rank vectors (:mod:`gendervec.embedding`), attach gender labels
(:mod:`gendervec.lexicon`, :mod:`gendervec.dataset`), train a small
feed-forward net (:mod:`gendervec.classifier`), and score the result
with confusion metrics and nonparametric statistics
(:mod:`gendervec.metrics`).  :mod:`gendervec.pipeline` wires the stages
together and :mod:`gendervec.synthetic` generates a controlled toy
language for end-to-end checks.

The package is used through its modules (``from gendervec import
pipeline``); importing one loads only it and what it imports.
"""

__version__ = "0.1.0"
