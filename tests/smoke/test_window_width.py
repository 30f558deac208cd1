"""A wide window must be cheaper per lane word than a narrow one.

The whole-graph modes default to windows of up to 1024 iterations because
the level step's cost per 64-lane word falls with the width — which holds
only while the neighbour sum is the jagged-diagonal walk.  The
``take`` + ``reduceat`` pair it replaced paid ~2x more per word at
``W = 16`` than at ``W = 1`` and made the wide window the slower one
(a 9-level window on this graph: ≈ 2.6 vs ≈ 2.4 ms a word, against
≈ 1.3 vs ≈ 2.8 ms now).
CI's ``perf-gate`` job runs this file beside ``test_sim_scale.py``
(``pytest -m smoke tests/smoke/test_window_width.py``).
"""

import time

import pytest

from repro.core.evaluator_path import path_eval_phase
from repro.ff.fingerprint import Fingerprint
from repro.ff.gf2m import default_field_for_k
from repro.graph.generators import erdos_renyi
from repro.util.rng import RngStream

pytestmark = pytest.mark.smoke


def test_a_word_costs_less_in_a_sixteen_word_window_than_alone():
    k = 10
    g = erdos_renyi(800, m=6400, rng=RngStream(1, name="g"))
    field = default_field_for_k(k, kernel_strategy="bitsliced")
    fp = Fingerprint.draw(g.n, k, RngStream(2), levels=k, field=field)
    per_word = {}
    for _ in range(5):  # interleaved; host noise only ever adds time
        for words in (1, 16):
            t0 = time.perf_counter()
            path_eval_phase(g, fp, 0, 64 * words)
            cost = (time.perf_counter() - t0) / words
            per_word[words] = min(cost, per_word.get(words, cost))
    print(f"k-path window on ER(800, 6400): {per_word[1] * 1e6:.0f} us a word "
          f"at W=1, {per_word[16] * 1e6:.0f} us a word at W=16")
    assert per_word[16] < per_word[1]
