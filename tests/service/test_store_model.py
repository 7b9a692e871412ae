"""Model-based tests of the budgeted local store against a plain dict.

``BudgetedStoreMachine`` drives one ``LocalFSBackend(max_bytes=BUDGET)``
through random ``put``/``get``/``delete``/``evict``/``clear`` sequences and
checks it against a ``{key: payload}`` model after every step.  The model
cannot predict *which* entries an eviction picks (recency comes from file
timestamps), so it learns the evicted keys from the store and checks that
they were the model's, that the newest write survived (also when the other
files carry timestamps from the future), and that only a store over budget
lost anything.

``test_two_writers_keep_the_store_within_budget`` interleaves the puts of
two budgeted writers on one root: each put, whoever makes it, leaves the
store within budget.

``TwoTierStoreMachine`` drives ``ProgramStore(root, remote_url=...)`` against
an in-process cache server and checks it against one ``{key: payload}``
model per tier: remote hits are written back locally, ``put_local`` never
publishes, and ``clear``/``evict`` never touch the server.  All three are
derandomized so tier-1 stays deterministic.
"""

import json
import os
import shutil
import tempfile
import time

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.service import ProgramStore
from repro.service.backends import LocalFSBackend

#: Two keys share a shard directory, so shard reuse is exercised too.
KEYS = ["aa" + "0" * 62, "aa" + "1" * 62, "bb" + "2" * 62, "cc" + "3" * 62, "dd" + "4" * 62]

#: Every payload fits the budget on its own (~30-260 bytes against 400).
BUDGET = 400
PADS = st.sampled_from([0, 50, 120, 230])

DETERMINISTIC = dict(derandomize=True, database=None, deadline=None)


def payload_for(key: str, pad: int) -> dict:
    return {"key": key[:4], "pad": "x" * pad}


def size_of(payload: dict) -> int:
    return len(json.dumps(payload).encode())


@settings(max_examples=60, stateful_step_count=30, **DETERMINISTIC)
class BudgetedStoreMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.root = tempfile.mkdtemp(prefix="store-model-")
        self.backend = LocalFSBackend(self.root, max_bytes=BUDGET)
        self.model = {}

    def teardown(self):
        shutil.rmtree(self.root, ignore_errors=True)

    def total(self) -> int:
        return sum(size_of(payload) for payload in self.model.values())

    def learn_evictions(self) -> dict:
        """Drop the keys eviction removed from the model; return them with sizes."""
        on_disk = set(self.backend.keys())
        assert on_disk <= set(self.model), "the store holds a key nobody put"
        return {key: size_of(self.model.pop(key)) for key in set(self.model) - on_disk}

    @rule(key=st.sampled_from(KEYS), pad=PADS)
    def put(self, key, pad):
        payload = payload_for(key, pad)
        assert self.backend.put(key, payload) is True
        self.model[key] = payload
        was_over = self.total() > BUDGET
        evicted = self.learn_evictions()
        assert key not in evicted, "the newest write was evicted"
        assert self.total() <= BUDGET
        if not was_over:
            assert not evicted, "evicted from a store within budget"
        else:
            # Eviction stops as soon as the store fits: the last entry it
            # removed (at most the largest) was needed.
            assert self.total() + max(evicted.values()) > BUDGET

    @rule(key=st.sampled_from(KEYS))
    def get(self, key):
        assert self.backend.get(key) == self.model.get(key)

    @rule(key=st.sampled_from(KEYS))
    def delete(self, key):
        assert self.backend.delete(key) is (key in self.model)
        self.model.pop(key, None)

    @rule(budget=st.integers(min_value=0, max_value=BUDGET))
    def evict(self, budget):
        before = self.total()
        removed, freed = self.backend.evict(budget)
        evicted = self.learn_evictions()
        assert (removed, freed) == (len(evicted), sum(evicted.values()))
        assert self.total() <= budget
        if before <= budget:
            assert removed == 0

    @rule(key=st.sampled_from(KEYS), pad=PADS)
    def put_after_clock_skew(self, key, pad):
        """Stamp every entry a day ahead, as a store copied from a machine
        whose clock runs fast, then put: the new write is the *oldest* file."""
        ahead_ns = time.time_ns() + 86_400 * 10**9
        for stored in self.model:
            os.utime(self.backend._path(stored), ns=(ahead_ns, ahead_ns))
        self.put(key, pad)

    @rule()
    def clear(self):
        assert self.backend.clear() == len(self.model)
        self.model.clear()

    @invariant()
    def stats_match_the_model(self):
        stats = self.backend.stats()
        assert stats["entries"] == len(self.model)
        assert stats["total_bytes"] == self.total()
        assert list(self.backend.keys()) == sorted(self.model)


TestBudgetedStore = BudgetedStoreMachine.TestCase


@settings(max_examples=60, **DETERMINISTIC)
@given(
    st.lists(
        st.tuples(st.sampled_from([0, 1]), st.sampled_from(KEYS), PADS),
        min_size=1,
        max_size=40,
    )
)
def test_two_writers_keep_the_store_within_budget(puts):
    """Every put scans the whole store, so the other writer's puts count too."""
    root = tempfile.mkdtemp(prefix="store-two-writers-")
    try:
        writers = [LocalFSBackend(root, max_bytes=BUDGET) for _ in range(2)]
        observer = LocalFSBackend(root)
        for writer, key, pad in puts:
            payload = payload_for(key, pad)
            writers[writer].put(key, payload)
            assert observer.stats()["total_bytes"] <= BUDGET
            assert observer.get(key) == payload, "the newest write was evicted"
    finally:
        shutil.rmtree(root, ignore_errors=True)


class TwoTierStoreMachine(RuleBasedStateMachine):
    """A two-tier ``ProgramStore`` against a model of each tier.

    ``server_put`` stands for another worker publishing, so remote-only
    entries (and with them write-back) come up in most runs.
    """

    def __init__(self, server):
        super().__init__()
        self.server = server
        server.backend.clear()
        self.root = tempfile.mkdtemp(prefix="store-tiers-")
        self.store = ProgramStore(self.root, remote_url=server.url)
        self.local, self.remote = {}, {}

    def teardown(self):
        self.store.remote.close()
        shutil.rmtree(self.root, ignore_errors=True)

    @rule(key=st.sampled_from(KEYS), pad=PADS)
    def put(self, key, pad):
        payload = payload_for(key, pad)
        assert self.store.put(key, payload) is True
        self.local[key] = self.remote[key] = payload

    @rule(key=st.sampled_from(KEYS), pad=PADS)
    def put_local(self, key, pad):
        payload = payload_for(key, pad)
        assert self.store.put_local(key, payload) is True
        self.local[key] = payload

    @rule(key=st.sampled_from(KEYS), pad=PADS)
    def server_put(self, key, pad):
        payload = payload_for(key, pad)
        self.server.backend.put(key, payload)
        self.remote[key] = payload

    def read_through(self, key):
        """The model's answer to a read of *key*, with the write-back applied."""
        if key not in self.local and key in self.remote:
            self.local[key] = self.remote[key]
        return self.local.get(key)

    @rule(key=st.sampled_from(KEYS))
    def get(self, key):
        assert self.store.get(key) == self.read_through(key)

    @rule(keys=st.lists(st.sampled_from(KEYS), unique=True))
    def prefetch(self, keys):
        fetched = [key for key in keys if key not in self.local and key in self.remote]
        for key in fetched:
            self.read_through(key)
        assert self.store.prefetch(keys) == len(fetched)

    @rule()
    def clear(self):
        assert self.store.clear() == len(self.local)
        self.local.clear()

    @rule(budget=st.sampled_from([0, 100, BUDGET]))
    def evict(self, budget):
        removed, freed = self.store.evict(budget)
        evicted = set(self.local) - set(self.store.local.keys())
        assert (removed, freed) == (len(evicted), sum(size_of(self.local[k]) for k in evicted))
        for key in evicted:
            del self.local[key]
        assert sum(size_of(payload) for payload in self.local.values()) <= budget

    @invariant()
    def tiers_match_the_model(self):
        assert {key: self.store.local.get(key) for key in self.store.local.keys()} == self.local
        assert {key: self.server.backend.get(key) for key in self.server.backend.keys()} == self.remote
        stats = self.store.stats()
        assert (stats["entries"], stats["remote_entries"]) == (len(self.local), len(self.remote))
        assert stats["remote_errors"] == 0


def test_two_tiers_follow_the_model(cache_server):
    run_state_machine_as_test(
        lambda: TwoTierStoreMachine(cache_server),
        settings=settings(max_examples=40, stateful_step_count=20, **DETERMINISTIC),
    )
