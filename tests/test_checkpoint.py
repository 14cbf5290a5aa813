"""Checkpoint round-trip: a saved model must reload bit-identically."""

import json

import numpy as np
import pytest

from voyager.model import (
    CHECKPOINT_SCHEMA_VERSION,
    HierarchicalModel,
    ModelConfig,
    load_checkpoint,
    save_checkpoint,
)
from voyager.synthetic import page_cycle_trace
from voyager.train import build_sequence_dataset, train
from voyager.vocab import Vocab


@pytest.fixture(scope="module")
def trained():
    trace = page_cycle_trace(300)
    dataset = build_sequence_dataset(trace, seq_len=24)
    config = ModelConfig(
        pc_vocab_size=dataset.pc_vocab.size,
        page_vocab_size=dataset.page_vocab.size,
        embed_dim=8,
        hidden_dim=16,
        seed=0,
        seq_len=24,
    )
    model = HierarchicalModel(config)
    train(model, dataset, steps=30, batch_size=8, lr=1e-2, seed=0)
    return model, dataset


def test_round_trip_predictions_bit_identical(trained, tmp_path):
    model, dataset = trained
    save_checkpoint(tmp_path / "ckpt", model, dataset.pc_vocab, dataset.page_vocab)
    loaded, _, _ = load_checkpoint(tmp_path / "ckpt")

    assert loaded.config == model.config
    for name, value in model.params.items():
        assert np.array_equal(loaded.params[name], value), name

    ids = (dataset.pc_ids, dataset.page_ids, dataset.offset_ids)
    orig_pages, orig_offs, _, _ = model.forward_sequence(*ids)
    new_pages, new_offs, _, _ = loaded.forward_sequence(*ids)
    assert np.array_equal(orig_pages, new_pages)
    assert np.array_equal(orig_offs, new_offs)


def test_round_trip_vocabs_preserve_ids(trained, tmp_path):
    model, dataset = trained
    save_checkpoint(tmp_path / "ck", model, dataset.pc_vocab, dataset.page_vocab)
    _, pc_vocab, page_vocab = load_checkpoint(tmp_path / "ck")
    for key in list(dataset.pc_vocab._key_to_id):
        assert pc_vocab.encode(key) == dataset.pc_vocab.encode(key)
    for key in list(dataset.page_vocab._key_to_id):
        assert page_vocab.encode(key) == dataset.page_vocab.encode(key)
    assert pc_vocab.size == dataset.pc_vocab.size
    assert page_vocab.size == dataset.page_vocab.size


def test_missing_checkpoint_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_checkpoint(tmp_path / "nope")


def test_half_missing_checkpoint_raises(trained, tmp_path):
    model, dataset = trained
    save_checkpoint(
        tmp_path / "broken", model, dataset.pc_vocab, dataset.page_vocab
    )
    (tmp_path / "broken.vocab.json").unlink()
    with pytest.raises(FileNotFoundError):
        load_checkpoint(tmp_path / "broken")


def test_schema_version_mismatch_rejected(trained, tmp_path):
    model, dataset = trained
    _, json_path = save_checkpoint(
        tmp_path / "old", model, dataset.pc_vocab, dataset.page_vocab
    )
    meta = json.loads(json_path.read_text())
    meta["schema_version"] = CHECKPOINT_SCHEMA_VERSION + 1
    json_path.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="schema"):
        load_checkpoint(tmp_path / "old")


def test_corrupt_param_shape_rejected(trained, tmp_path):
    model, dataset = trained
    npz_path, _ = save_checkpoint(
        tmp_path / "bad", model, dataset.pc_vocab, dataset.page_vocab
    )
    arrays = dict(np.load(npz_path))
    arrays["w_page"] = arrays["w_page"][:, :-1]
    np.savez(npz_path, **arrays)
    with pytest.raises(ValueError, match="shape"):
        load_checkpoint(tmp_path / "bad")


def test_vocab_dict_round_trip_standalone():
    vocab = Vocab(cap=8).fit([5, 5, 7, 9, 9, 9])
    clone = Vocab.from_dict(json.loads(json.dumps(vocab.to_dict())))
    for key in (5, 7, 9, 12345):
        assert clone.encode(key) == vocab.encode(key)
    assert clone.size == vocab.size
    assert clone.decode(0) is None


def test_vocab_from_dict_rejects_overflow():
    with pytest.raises(ValueError):
        Vocab.from_dict({"cap": 1, "keys": [1, 2]})


def test_metadata_records_training_provenance(trained, tmp_path):
    from voyager.model import checkpoint_metadata, vocab_fingerprint

    model, dataset = trained
    save_checkpoint(
        tmp_path / "ckpt", model, dataset.pc_vocab, dataset.page_vocab
    )
    meta = checkpoint_metadata(tmp_path / "ckpt")
    assert meta["schema_version"] == CHECKPOINT_SCHEMA_VERSION
    assert meta["format_version"] == CHECKPOINT_SCHEMA_VERSION
    assert meta["model_config"]["seq_len"] == 24
    assert meta["vocab_hash"] == vocab_fingerprint(
        dataset.pc_vocab, dataset.page_vocab
    )
    # Metadata-only read: works with the .npz deleted.
    (tmp_path / "ckpt.npz").unlink()
    assert checkpoint_metadata(tmp_path / "ckpt")["model_config"]["seq_len"] == 24


def test_metadata_defaults_none_provenance(tmp_path):
    """A model built without an explicit ``seq_len`` records the default
    reset period in ``model_config``; no top-level provenance fields."""
    from voyager.model import DEFAULT_SEQ_LEN, checkpoint_metadata

    pc_vocab = Vocab(8).fit([1, 2, 3])
    page_vocab = Vocab(8).fit([4, 5])
    model = HierarchicalModel(
        ModelConfig(
            pc_vocab_size=pc_vocab.size, page_vocab_size=page_vocab.size
        )
    )
    save_checkpoint(tmp_path / "ckpt", model, pc_vocab, page_vocab)
    meta = checkpoint_metadata(tmp_path / "ckpt")
    assert meta["model_config"]["seq_len"] == DEFAULT_SEQ_LEN
    assert meta.get("train_mode") is None and meta.get("seq_len") is None
    loaded, _, _ = load_checkpoint(tmp_path / "ckpt")
    assert loaded.config.seq_len == DEFAULT_SEQ_LEN


@pytest.mark.parametrize(
    "legacy_fields,expected",
    [({"train_mode": "sequence", "seq_len": 24}, 24), ({"seq_len": None}, 32), ({}, 32)],
    ids=["top-level-seq-len", "top-level-none", "no-field"],
)
def test_checkpoint_without_config_seq_len_loads(
    trained, tmp_path, legacy_fields, expected
):
    """A schema-v2 file written before ``model_config`` carried
    ``seq_len`` resets by its top-level ``seq_len`` field, else 32."""
    model, dataset = trained
    save_checkpoint(
        tmp_path / "ckpt", model, dataset.pc_vocab, dataset.page_vocab
    )
    json_path = tmp_path / "ckpt.vocab.json"
    meta = json.loads(json_path.read_text())
    del meta["model_config"]["seq_len"]
    meta.update(legacy_fields)
    json_path.write_text(json.dumps(meta))
    loaded, _, _ = load_checkpoint(tmp_path / "ckpt")
    assert loaded.config.seq_len == expected


def test_edited_vocab_mapping_rejected_by_hash(trained, tmp_path):
    model, dataset = trained
    save_checkpoint(
        tmp_path / "ckpt", model, dataset.pc_vocab, dataset.page_vocab
    )
    json_path = tmp_path / "ckpt.vocab.json"
    mutated = json.loads(json_path.read_text())
    # Remap one pc id: the weights still load, but the ids no longer
    # mean what the hash was computed over.
    mutated["pc_vocab"]["keys"][0] += 1
    json_path.write_text(json.dumps(mutated))
    with pytest.raises(ValueError, match="vocab_hash"):
        load_checkpoint(tmp_path / "ckpt")


def test_vocab_fingerprint_is_order_insensitive_and_content_sensitive():
    from voyager.model import vocab_fingerprint

    a = Vocab(cap=8).fit([1, 2, 3])
    b = Vocab(cap=8).fit([1, 2, 3])
    c = Vocab(cap=8).fit([1, 2, 4])
    assert vocab_fingerprint(a, a) == vocab_fingerprint(b, b)  # content-keyed
    assert vocab_fingerprint(a, a) != vocab_fingerprint(c, c)
    assert vocab_fingerprint(a, c) != vocab_fingerprint(c, a)  # role matters
