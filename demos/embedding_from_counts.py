"""
Word vectors from co-occurrence counts
======================================

A miniature corpus is enough to watch the whole embedding recipe work:
count context/target pairs in a directional window, damp the raw counts
with a power transform, factor the matrix with a truncated SVD, and read
off one vector per word.
"""

import numpy as np

from gendervec.corpus import build_vocabulary
from gendervec.cooccurrence import ContextConfig, count_cooccurrences
from gendervec.embedding import EmbeddingConfig, embed

# Two noun groups, each introduced by its own article.  The only signal
# separating "hund"-like from "hus"-like words is which article precedes
# them, so a one-word backward window is all the context we need.
sentences = [
    "en hund jagar en katt".split(),
    "ett hus har ett tak".split(),
    "en katt ser en hund".split(),
    "ett tak pryder ett hus".split(),
    "en bil passerar en hund".split(),
    "ett barn ritar ett hus".split(),
]

vocab = build_vocabulary(sentences)
print(f"vocabulary: {len(vocab)} tokens")

# Count pairs, then look at the raw matrix: each noun co-occurs with the
# article of its own group and with nothing else in the window.
context = ContextConfig(context_type="asymmetric_backward", window_size=1)
cooc = count_cooccurrences(sentences, vocab, context)
print(f"co-occurrence matrix: {cooc.matrix.shape}, {cooc.nnz} nonzero counts")

# Factor the (power-transformed) counts.  Two dimensions suffice here.
emb = embed(sentences, vocab, context, EmbeddingConfig(k=2, alpha=0.5, seed=0))
nouns = ("hund", "katt", "bil", "hus", "tak", "barn")
vectors = dict(zip(nouns, emb.matrix[emb.rows(nouns)]))
for word, (x, y) in vectors.items():
    print(f"  {word:6s} [{x:+.3f} {y:+.3f}]")

# Cosine similarity splits cleanly along group lines.
def cosine(a, b):
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

same = cosine(vectors["hund"], vectors["katt"])
cross = cosine(vectors["hund"], vectors["hus"])
print(f"within-group cosine  {same:+.3f}")
print(f"across-group cosine  {cross:+.3f}")
