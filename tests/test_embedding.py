"""Truncated SVD against a dense oracle, plus embedding plumbing."""

import functools
import struct

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import block_diag
from scipy.sparse.linalg import ArpackError, eigsh, svds

import gendervec.embedding as embedding
from gendervec import synthetic
from gendervec.cooccurrence import ContextConfig, CoocMatrix, count_cooccurrences
from gendervec.corpus import build_vocabulary
from gendervec.embedding import (
    EmbeddingConfig,
    EmbeddingMatrix,
    embed,
    embed_counts,
    load_embedding_binary,
    load_embedding_text,
    power_transform,
    save_embedding_binary,
    scaled_vectors,
    save_embedding_text,
    truncated_svd,
)
from gendervec.errors import ConfigurationError, DataError, NumericalError
from gendervec.pipeline import project_2d


# Oracle: full dense SVD via LAPACK, truncated after the fact.  Written
# before looking at the implementation; the only shared piece is the
# sign convention, which both sides need for comparability.
def dense_svd_oracle(matrix, k):
    dense = matrix.toarray() if sparse.issparse(matrix) else np.asarray(matrix, dtype=float)
    _, s, vt = np.linalg.svd(dense, full_matrices=False)
    sigma = s[:k].copy()
    v = vt[:k].T.copy()
    for j in range(v.shape[1]):
        lead = int(np.argmax(np.abs(v[:, j])))
        if v[lead, j] < 0:
            v[:, j] = -v[:, j]
    return sigma, v


def test_diagonal_matrix_exact():
    sigma, v = truncated_svd(np.diag([3.0, 2.0, 1.0]), 2)
    assert np.allclose(sigma, [3.0, 2.0])
    assert np.allclose(v, np.eye(3)[:, :2], atol=1e-12)


def test_rank_one_matrix():
    rng = np.random.default_rng(7)
    u = rng.standard_normal(12)
    w = rng.standard_normal(9)
    sigma, v = truncated_svd(np.outer(u, w), 1)
    assert sigma[0] == pytest.approx(np.linalg.norm(u) * np.linalg.norm(w), rel=1e-12)
    unit = w / np.linalg.norm(w)
    if unit[int(np.argmax(np.abs(unit)))] < 0:
        unit = -unit
    assert np.allclose(v[:, 0], unit, atol=1e-10)


def test_matches_dense_oracle_random():
    rng = np.random.default_rng(42)
    for trial in range(40):
        m = int(rng.integers(2, 65))
        n = int(rng.integers(2, 65))
        cap = min(m, n)
        # Alternate between the dense path (k >= cap - 1, past what ARPACK
        # takes) and the ARPACK path; the first two trials pin both ends
        # of the dense path.
        if trial < 2:
            k = cap - trial
        elif trial % 2 == 0:
            k = int(rng.integers(max(1, cap - 5), cap + 1))
        else:
            k = int(rng.integers(1, max(2, cap - 10)))
        mat = rng.standard_normal((m, n))
        if trial % 3 == 0:
            mat = sparse.csr_array(np.where(rng.random((m, n)) < 0.5, mat, 0.0))
        sigma, v = truncated_svd(mat, k, seed=trial)
        ref_sigma, ref_v = dense_svd_oracle(mat, k)
        assert np.max(np.abs(sigma - ref_sigma)) <= 1e-6
        assert np.max(np.abs(v - ref_v)) <= 1e-5
        assert np.all(np.diff(sigma) <= 1e-12)
        assert np.all(sigma >= 0)
        gram = v.T @ v
        assert np.max(np.abs(gram - np.eye(k))) <= 1e-8


def test_seed_determinism():
    rng = np.random.default_rng(0)
    mat = rng.standard_normal((30, 25))
    s1, v1 = truncated_svd(mat, 4, seed=11)
    s2, v2 = truncated_svd(mat, 4, seed=11)
    assert np.array_equal(s1, s2)
    assert np.array_equal(v1, v2)
    s3, v3 = truncated_svd(mat, 4, seed=12)
    assert np.allclose(s1, s3, atol=1e-8)
    assert np.allclose(v1, v3, atol=1e-6)


def test_sign_convention_largest_component_non_negative():
    rng = np.random.default_rng(5)
    for seed in range(10):
        mat = rng.standard_normal((20, 15))
        _, v = truncated_svd(mat, 6, seed=seed)
        for j in range(v.shape[1]):
            lead = int(np.argmax(np.abs(v[:, j])))
            assert v[lead, j] >= 0


def test_sign_convention_tie_takes_first_index():
    # Right singular vectors [1,1]/sqrt(2) and [1,-1]/sqrt(2): both
    # components tie in magnitude, so the first one must end up >= 0.
    root = 1.0 / np.sqrt(2.0)
    vt = np.array([[root, root], [root, -root]])
    mat = np.diag([2.0, 1.0]) @ vt
    _, v = truncated_svd(mat, 2)
    assert v[0, 0] > 0
    assert v[0, 1] > 0
    assert np.allclose(np.abs(v), root, atol=1e-10)


def test_k_out_of_range():
    mat = np.ones((4, 3))
    with pytest.raises(ConfigurationError):
        truncated_svd(mat, 0)
    with pytest.raises(ConfigurationError):
        truncated_svd(mat, 4)
    with pytest.raises(ConfigurationError):
        truncated_svd(np.empty((0, 5)), 1)


def test_non_convergence_is_numerical_error(monkeypatch):
    monkeypatch.setattr(embedding, "eigsh", functools.partial(eigsh, maxiter=1))
    rng = np.random.default_rng(3)
    mat = rng.standard_normal((40, 30))
    with pytest.raises(NumericalError, match="converge"):
        truncated_svd(mat, 5)


# Oracle: scipy's svds with truncated_svd's start vector, order and
# signs.  truncated_svd runs svds's ARPACK steps on scipy's LAPACK alone,
# and must match it bit for bit.
def svds_oracle(matrix, k, seed):
    v0 = np.random.default_rng(seed).standard_normal(min(matrix.shape))
    _, s, vt = svds(matrix, k=k, v0=v0, return_singular_vectors="vh")
    order = np.argsort(-s, kind="stable")[:k]
    return embedding._fix_signs(s[order], vt[order].T)


def _sparse_random(shape):
    rng = np.random.default_rng(11)
    return sparse.csr_array(np.where(rng.random(shape) < 0.05, rng.random(shape), 0.0))


def _backward_counts():
    # backward w=1 counts of a small synthetic language, rank 48 of 414,
    # so k=50 reaches past the rank; large enough that the order of
    # svds's last product shows in the bits
    language = synthetic.generate_synthetic_language(
        synthetic.SyntheticSpec(noun_count=400, sentence_count=4000, seed=0)
    )
    vocab = build_vocabulary(language.sentences)
    config = ContextConfig("asymmetric_backward", 1)
    return power_transform(count_cooccurrences(language.sentences, vocab, config), 0.5)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize(
    "make, k",
    [
        (lambda: _sparse_random((300, 120)), 10),
        (lambda: _sparse_random((120, 300)), 10),
        (lambda: _sparse_random((200, 200)), 10),
        (_backward_counts, 50),
        (lambda: _sparse_random((300, 120)).toarray(), 10),
        (lambda: _sparse_random((120, 300)).toarray(), 10),
    ],
    ids=["tall", "wide", "square", "rank-deficient-counts", "dense-tall", "dense-wide"],
)
def test_matches_svds_bit_for_bit(make, k, seed):
    matrix = make()
    sigma, v = truncated_svd(matrix, k, seed=seed)
    ref_sigma, ref_v = svds_oracle(matrix, k, seed)
    assert np.array_equal(sigma, ref_sigma)
    assert np.array_equal(v, ref_v)


@pytest.mark.parametrize("k", [5, 20])
def test_k_above_the_rank(k):
    # rank 3 with k above it: ARPACK asks for restart vectors, which the
    # seed draws too, so repeated calls agree bit for bit
    mat = block_diag(np.ones((70, 70)), 2 * np.ones((60, 60)), 3 * np.ones((70, 70)))
    sigma, v = truncated_svd(mat, k, seed=0)
    assert np.allclose(sigma[:3], [210.0, 120.0, 70.0])
    assert np.allclose(sigma[3:], 0.0, atol=1e-8)
    assert np.allclose(v.T @ v, np.eye(k), atol=1e-8)
    for _ in range(3):
        again_sigma, again_v = truncated_svd(mat, k, seed=0)
        assert again_sigma.tobytes() == sigma.tobytes()
        assert again_v.tobytes() == v.tobytes()


def test_factorizations_never_call_numpy_linalg(monkeypatch):
    # numpy bundles a second OpenBLAS whose threads compete with scipy's
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg called")

    monkeypatch.setattr(np.linalg, "qr", refuse)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    mat = np.random.default_rng(3).standard_normal((40, 30))
    for k in (5, 29):  # the ARPACK branch, then the dense one
        assert truncated_svd(mat, k)[1].shape == (30, k)
    assert truncated_svd(sparse.csr_array(mat.T), 5)[1].shape == (40, 5)
    assert project_2d(mat).shape == (40, 2)


@pytest.mark.parametrize("seed", range(4))
def test_flat_tail_spectrum_converges(seed):
    # Five leading values over a tail of 150 values within 1e-4 of 1:
    # k=10 cuts through the flat tail, so the 10th singular value is
    # barely separated from the 11th.
    rng = np.random.default_rng(seed)
    spectrum = np.concatenate([np.linspace(10, 5, 5), 1 + 1e-4 * rng.random(150)])
    left, _ = np.linalg.qr(rng.standard_normal((300, spectrum.size)))
    right, _ = np.linalg.qr(rng.standard_normal((300, spectrum.size)))
    mat = (left * spectrum) @ right.T
    sigma, v = truncated_svd(mat, 10, seed=seed)
    ref_sigma, _ = dense_svd_oracle(mat, 10)
    assert np.max(np.abs(sigma - ref_sigma)) <= 1e-12
    assert np.max(np.abs(v.T @ v - np.eye(10))) <= 1e-8


def _toy_cooc(alpha_counts=None):
    corpus = [["en", "hund"], ["en", "katt"], ["ett", "hus"], ["ett", "barn"], ["en", "hund"]]
    vocab = build_vocabulary(corpus)
    cooc = count_cooccurrences(corpus, vocab, ContextConfig("asymmetric_backward", 1))
    return corpus, vocab, cooc


def test_power_transform_values_and_sparsity():
    _, _, cooc = _toy_cooc()
    out = power_transform(cooc, 0.5)
    assert out.nnz == cooc.matrix.nnz
    assert np.allclose(out.data, np.sqrt(cooc.matrix.data))
    # the original matrix is left untouched
    assert np.allclose(cooc.matrix.data, np.round(cooc.matrix.data))


def test_power_transform_rejects_bad_alpha():
    _, _, cooc = _toy_cooc()
    with pytest.raises(ConfigurationError):
        power_transform(cooc, 0.0)
    with pytest.raises(ConfigurationError):
        power_transform(cooc, -1.0)
    # the alpha check, not the overflow check, rejects NaN
    with pytest.raises(ConfigurationError, match="^alpha must be > 0, got nan$"):
        power_transform(cooc, float("nan"))


def test_power_transform_overflow_is_numerical_error():
    _, _, cooc = _toy_cooc()
    # counts are whole numbers below 2**63, so only a large alpha overflows
    cooc.matrix.data[:] = 10**18
    with pytest.raises(NumericalError):
        power_transform(cooc, 20.0)


def test_embedding_config_validation_and_roundtrip():
    with pytest.raises(ConfigurationError):
        EmbeddingConfig(k=0)
    with pytest.raises(ConfigurationError):
        EmbeddingConfig(alpha=0.0)
    cfg = EmbeddingConfig(k=10, alpha=0.75, sigma_power=1.0, seed=9)
    assert EmbeddingConfig.from_dict(cfg.to_dict()) == cfg
    assert cfg.to_dict() == {"K": 10, "alpha": 0.75, "sigma_power": 1.0, "seed": 9}
    loaded = EmbeddingConfig.from_dict({"K": 10, "alpha": 1, "rows": 3, "cols": 3})
    assert loaded == EmbeddingConfig(k=10, alpha=1.0)
    assert type(loaded.alpha) is float
    assert EmbeddingConfig.from_dict({}) == EmbeddingConfig()
    # a float field takes no bool, an int field no fraction
    with pytest.raises(DataError, match="alpha"):
        EmbeddingConfig.from_dict({"alpha": True})
    with pytest.raises(DataError, match="K"):
        EmbeddingConfig.from_dict({"K": 10.5})


def test_embedding_matrix_accessors_and_validation():
    vecs = np.arange(6.0).reshape(3, 2)
    emb = EmbeddingMatrix(["a", "b", "c"], vecs)
    assert len(emb) == 3
    assert emb.k == 2
    assert "b" in emb and "z" not in emb
    assert np.array_equal(emb.matrix[emb.rows(["c"])[0]], [4.0, 5.0])
    with pytest.raises(DataError):
        EmbeddingMatrix(["a", "a"], vecs[:2])
    with pytest.raises(ConfigurationError):
        EmbeddingMatrix(["a", "b"], vecs)
    with pytest.raises(ConfigurationError):
        EmbeddingMatrix(["a"], np.ones(3))


def test_embed_counts_gram_reproduces_full_rank_product():
    _, vocab, cooc = _toy_cooc()
    cfg = EmbeddingConfig(k=len(vocab), alpha=1.0, sigma_power=1.0)
    emb = embed_counts(cooc, vocab, cfg)
    gram = emb.matrix @ emb.matrix.T
    target = (cooc.matrix.T @ cooc.matrix).toarray()
    assert np.max(np.abs(gram - target)) <= 1e-6


def test_embed_separates_article_groups_in_two_dims():
    corpus, vocab, _ = _toy_cooc()
    emb = embed(corpus, vocab, ContextConfig("asymmetric_backward", 1), EmbeddingConfig(k=2, alpha=0.5))
    en_nouns = emb.matrix[emb.rows(["hund", "katt"])]
    ett_nouns = emb.matrix[emb.rows(["hus", "barn"])]
    direction = en_nouns.mean(axis=0) - ett_nouns.mean(axis=0)
    lo = (en_nouns @ direction).min()
    hi = (ett_nouns @ direction).max()
    assert lo > hi + 1e-6


def test_embed_counts_vocab_mismatch():
    corpus, vocab, cooc = _toy_cooc()
    other = build_vocabulary([["x", "y"]])
    with pytest.raises(ConfigurationError):
        embed_counts(cooc, other, EmbeddingConfig(k=1))


def test_arpack_error_is_numerical_error(monkeypatch):
    def failing_eigsh(*args, **kwargs):
        raise ArpackError(-9)

    monkeypatch.setattr(embedding, "eigsh", failing_eigsh)
    mat = np.random.default_rng(3).standard_normal((40, 30))
    with pytest.raises(NumericalError, match="ARPACK error -9"):
        truncated_svd(mat, 5)


def test_embed_all_zero_matrix_is_a_data_error():
    # one-word sentences share no window
    corpus = [["hund"], ["katt"], ["hus"], ["barn"], ["en"], ["hund"]]
    vocab = build_vocabulary(corpus)
    config = ContextConfig("symmetric", 2)
    cooc = count_cooccurrences(corpus, vocab, config)
    assert cooc.shape == (5, 5) and cooc.nnz == 0
    with pytest.raises(DataError, match="no nonzero count"):
        embed_counts(cooc, vocab, EmbeddingConfig(k=2))
    # explicitly stored zeros hold no count either
    zeros = sparse.csr_array((np.zeros(2), ([0, 1], [1, 0])), shape=(5, 5))
    assert zeros.nnz == 2
    with pytest.raises(DataError, match="no nonzero count"):
        embed_counts(CoocMatrix(zeros, config), vocab, EmbeddingConfig(k=2))


def test_embed_empty_matrix_fails():
    vocab = build_vocabulary([])
    with pytest.raises(ConfigurationError):
        embed([], vocab, ContextConfig("asymmetric_backward", 1), EmbeddingConfig(k=1))


def test_embed_overflowing_alpha_is_numerical_error():
    corpus, vocab, cooc = _toy_cooc()
    cooc.matrix.data[:] = 10**18
    with pytest.raises(NumericalError):
        embed_counts(cooc, vocab, EmbeddingConfig(k=1, alpha=20.0))


def test_sigma_power_rescales_columns():
    _, vocab, cooc = _toy_cooc()
    flat = embed_counts(cooc, vocab, EmbeddingConfig(k=2, alpha=0.5, sigma_power=0.0))
    scaled = embed_counts(cooc, vocab, EmbeddingConfig(k=2, alpha=0.5, sigma_power=1.0))
    sigma, _ = dense_svd_oracle(power_transform(cooc, 0.5), 2)
    assert np.allclose(scaled.matrix, flat.matrix * sigma, atol=1e-10)
    # a zero singular value to a negative power is infinite
    with np.errstate(divide="ignore"), pytest.raises(NumericalError, match="non-finite"):
        scaled_vectors(np.array([1.0, 0.0]), np.ones((3, 2)), EmbeddingConfig(k=2, sigma_power=-1.0))


def test_text_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    emb = EmbeddingMatrix(["alpha", "beta", "gamma"], rng.standard_normal((3, 4)))
    path = tmp_path / "emb.txt"
    save_embedding_text(emb, path)
    back = load_embedding_text(path)
    assert back.words == emb.words
    # repr() round-trips float64 exactly
    assert np.array_equal(back.matrix, emb.matrix)


def test_text_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a header\n", encoding="utf-8")
    with pytest.raises(DataError):
        load_embedding_text(path)
    path.write_text("2 3\nw1 0.5 0.5\nw2 0.5 0.5 0.5\n", encoding="utf-8")
    with pytest.raises(DataError):
        load_embedding_text(path)
    path.write_text("1 2\nw1 0.5 half\n", encoding="utf-8")
    with pytest.raises(DataError, match="non-numeric"):
        load_embedding_text(path)
    path.write_text("-1 2\n", encoding="utf-8")
    with pytest.raises(DataError, match="header"):
        load_embedding_text(path)
    # a header promising more rows than the file holds fails before allocating
    path.write_text("10000000000000 5\nw1 0.5 0.5 0.5 0.5 0.5\n", encoding="utf-8")
    with pytest.raises(DataError, match="past the file end"):
        load_embedding_text(path)
    path.write_text("2 0\nw1\nw2\n", encoding="utf-8")
    with pytest.raises(DataError, match="vectors have dimension 0"):
        load_embedding_text(path)


def test_duplicate_word_names_the_file(tmp_path):
    text = tmp_path / "emb.txt"
    text.write_text("2 2\na 0.5 0.5\na 1.0 1.0\n", encoding="utf-8")
    binary = tmp_path / "emb.bin"
    save_embedding_binary(EmbeddingMatrix(["a", "b"], np.eye(2)), binary)
    # the second word's length prefix and its one byte
    binary.write_bytes(binary.read_bytes().replace(b"\x01\x00\x00\x00b", b"\x01\x00\x00\x00a"))
    for path, load in ((text, load_embedding_text), (binary, load_embedding_binary)):
        with pytest.raises(DataError) as info:
            load(path)
        assert str(info.value) == f"{path}: duplicate word in the embedding: 'a'"


def test_binary_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    emb = EmbeddingMatrix(["ö", "NUMBER", "x"], rng.standard_normal((3, 5)))
    path = tmp_path / "emb.bin"
    save_embedding_binary(emb, path)
    back = load_embedding_binary(path)
    assert back.words == emb.words
    assert np.array_equal(back.matrix, emb.matrix)


def test_binary_errors_name_where_the_bytes_go_wrong(tmp_path):
    emb = EmbeddingMatrix(["en", "två", "ett"], np.arange(6.0).reshape(3, 2))
    path = tmp_path / "emb.bin"
    save_embedding_binary(emb, path)
    data = path.read_bytes()
    # 24 header bytes, then per row a 4-byte length, the word and 16 bytes
    second, third = 24 + 4 + 2 + 16, 24 + 4 + 2 + 16 + 4 + 4 + 16
    truncated = "truncated embedding file"
    cases = [
        # a word that runs past the file end
        (data[:third] + struct.pack("<I", 1000) + data[third + 4:], truncated),
        # the file ends inside the last vector
        (data[:-3], truncated),
        # invalid UTF-8 in a middle word names its byte
        (data.replace("två".encode(), b"tv\xff\xa5"), f"invalid UTF-8 at byte offset {second + 6}"),
        # a bad word is found before the vector after it is missed
        (data.replace(b"ett", b"e\xfft")[:-3], f"invalid UTF-8 at byte offset {third + 5}"),
    ]
    for content, message in cases:
        path.write_bytes(content)
        with pytest.raises(DataError) as info:
            load_embedding_binary(path)
        assert str(info.value) == f"{path}: {message}"


def test_binary_bad_magic(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(DataError):
        load_embedding_binary(path)


def test_binary_truncated(tmp_path):
    rng = np.random.default_rng(4)
    emb = EmbeddingMatrix(["a", "b"], rng.standard_normal((2, 3)))
    path = tmp_path / "emb.bin"
    save_embedding_binary(emb, path)
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(DataError):
        load_embedding_binary(path)
    # a header cut short, and a header promising more rows than the file holds
    path.write_bytes(data[:20])
    with pytest.raises(DataError, match="truncated"):
        load_embedding_binary(path)
    path.write_bytes(data[:8] + struct.pack("<QQ", 10**12, 3) + data[24:])
    with pytest.raises(DataError, match="promises"):
        load_embedding_binary(path)
    save_embedding_binary(EmbeddingMatrix(["a", "b"], np.empty((2, 0))), path)
    with pytest.raises(DataError, match="vectors have dimension 0"):
        load_embedding_binary(path)
