"""Every document of the benchmark pool survives its reader and writer.

Each document in perfbench/pool/*.json (only read here) is parsed by its
serialize reader and written back by the matching writer; the canonical text
must be the document's own.  The pool holds equivariant complexes, classify
pairs (a chain complex a1 and equivariant complexes a2, a3) and coalgebras
over F2, F3 and Q, so this pins matrix_to_json's read of every field's
storage and the label, action and theta codecs."""

import json
import os

import pytest

from tcalc import serialize

POOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "perfbench", "pool")
CODECS = {
    "e": (serialize.equivariant_from_json, serialize.equivariant_to_json),
    "a1": (serialize.chain_from_json, serialize.chain_to_json),
    "a2": (serialize.equivariant_from_json, serialize.equivariant_to_json),
    "a3": (serialize.equivariant_from_json, serialize.equivariant_to_json),
    "c": (serialize.coalgebra_from_json, serialize.coalgebra_to_json),
}


def _round_trip(key, doc):
    """doc read and written back by the codec of its pool key; a classify
    pair (key "p") part by part."""
    if key == "p":
        return {part: _round_trip(part, d) for part, d in doc.items()}
    read, write = CODECS[key]
    return write(read(doc))


@pytest.mark.parametrize("workload, count", [
    ("equivariant", 224 + 16), ("tower-f2", 48), ("tower-q", 32)])
def test_pool_documents_round_trip(workload, count):
    with open(os.path.join(POOL, workload + ".json")) as f:
        pool = json.load(f)
    seen = 0
    for slot in pool["slots"]:
        for variant in slot["variants"]:
            for key, doc in variant["docs"].items():
                assert serialize.dumps(_round_trip(key, doc)) == \
                    serialize.dumps(doc), (slot["name"], key)
                seen += 1
    assert seen == count
