"""Full n=8 census cross-validation (the heavyweight test, about 10 s).

Builds the complete 8-vertex isomorphism census in-process by augmenting
every 7-vertex class with every possible new-vertex neighborhood (every
8-vertex graph contains a 7-vertex induced subgraph, so this covers all
classes), then runs the file-search path over it. Pins the known census
size, the census's bytes against the benchmark's `perfbench/data/census8.g6`,
the known LC-class count, and the optimal bounds of the n=8 column, and
checks that a run interrupted midway and resumed from its checkpoint
reports the same.
"""
import hashlib
import os
import time

import numpy as np
import pytest

import bellgraph.search as search_module
from bellgraph.canon import CanonicalForm, canonical_codes
from bellgraph.dyadic import Dyadic
from bellgraph.search import iso_class_reps, search_file
from test_search import interrupted_run

CENSUS8 = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "data", "census8.g6")
CENSUS8_SHA256 = "960f5028708c6efc247c5282ec3e79599aac394896b65b8c4577acdb75a550f1"


@pytest.fixture(scope="module")
def census8_path(tmp_path_factory):
    reps7 = iso_class_reps(7)
    assert len(reps7) == 1044
    # every 7-vertex rep joined by a new vertex 7 with every neighborhood nb
    adj7 = np.array([g.adj for g in reps7], dtype=np.int64)[:, None, :]
    nb = np.arange(1 << 7, dtype=np.int64)[None, :, None]
    rows = np.concatenate([adj7 | (nb >> np.arange(7) & 1) << 7,
                           np.broadcast_to(nb, (len(reps7), 1 << 7, 1))], axis=2)
    codes = set(canonical_codes(8, rows.reshape(-1, 8)))
    assert len(codes) == 12346  # known class count on 8 vertices
    path = tmp_path_factory.mktemp("census") / "n8.g6"
    path.write_text("".join(CanonicalForm(8, c).to_graph6() + "\n" for c in sorted(codes)))
    # the benchmark's census8 workload reads this census, committed byte for byte
    built = path.read_bytes()
    assert hashlib.sha256(built).hexdigest() == CENSUS8_SHA256
    with open(CENSUS8, "rb") as fh:
        assert fh.read() == built
    return str(path)


def test_n8_column(census8_path):
    started = time.perf_counter()
    reports = search_file(census8_path, (0, 1, 2))
    assert reports[0].best_bound == Dyadic(10, 5)
    assert reports[1].best_bound == Dyadic(29, 5)
    assert reports[2].best_bound == Dyadic(1)
    for t in (0, 1, 2):
        assert reports[t].lc_classes_examined == 182  # known LC-class count
        assert reports[t].graphs_examined == 12346
    # the t=1 optimum is attained by a single class: K_3 + K_5's
    assert reports[1].witness_classes_total == 1
    print(f"\n  n=8 census search: {time.perf_counter() - started:.1f}s", end="")


def test_n8_resume_matches_uninterrupted_run(monkeypatch, tmp_path, census8_path):
    ts = (0, 1, 2)
    full = search_file(census8_path, ts)
    monkeypatch.setattr(search_module, "CHUNK_SIZE", 1024)  # 13 chunks
    ck = tmp_path / "n8.ck"
    calls = interrupted_run(monkeypatch, 7, census8_path, ts, checkpoint_path=str(ck))
    assert calls[-1] == 7 * 1024
    # the file holds the representatives found so far, and no seen-set
    lines = ck.read_text().splitlines()
    assert sum(line.startswith("rep=") for line in lines) <= 182
    assert not any(line.startswith("seen=") for line in lines)
    resumed = search_file(census8_path, ts, checkpoint_path=str(ck))
    for t in ts:
        assert resumed[t].comparable() == full[t].comparable()
