"""The full-record fingerprints of scripts/fingerprints.py."""

import hashlib
import json

from infmax import SeedRecord

from conftest import load_script

fingerprints = load_script("fingerprints")

RECORDS = [
    SeedRecord(3, 2.5, 2.25, 2.25),
    SeedRecord(1, 1.0, 0.75, 3.0),
    SeedRecord(0, 0.5, 0.0, 3.0, below_cutoff=True),
]


def test_hash_covers_the_estimate():
    moved = [SeedRecord(3, 2.5, 2.25, 2.25), SeedRecord(1, 1.0 + 2 ** -52, 0.75, 3.0), RECORDS[2]]
    assert fingerprints.sequence_hash(RECORDS) == fingerprints.sequence_hash(list(RECORDS))
    assert fingerprints.sequence_hash(moved) != fingerprints.sequence_hash(RECORDS)


def test_hash_is_that_of_the_record_tuples():
    text = repr([(r.item, r.estimate, r.gain, r.cumulative, r.below_cutoff) for r in RECORDS])
    assert fingerprints.sequence_hash(RECORDS) == hashlib.sha256(text.encode()).hexdigest()


def test_first_difference_names_the_first_changed_record():
    texts = fingerprints.record_texts(RECORDS)
    moved = fingerprints.record_texts([RECORDS[0], SeedRecord(1, 1.0, 0.5, 2.75), RECORDS[2]])
    assert fingerprints.first_difference(texts, moved) == {
        "index": 1, "parent": texts[1], "change": "(1, 1.0, 0.5, 2.75, False)"}
    assert fingerprints.first_difference(texts[:2], texts) == {
        "index": 2, "parent": None, "change": texts[2]}


def test_tree_against_itself_has_no_mismatch(capsys):
    root = fingerprints.ROOT
    code = fingerprints.main(["--parent", root, "--workload", "lazy-matrix",
                              "--seeds", "0-1", "--scale", "0.02"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert (doc["inputs"], doc["mismatches"]) == (2, [])
