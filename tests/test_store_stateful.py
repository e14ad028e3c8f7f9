"""Stateful property tests of the artifact store under concurrent-writer
races, and of the code cache's never-serve-poison guarantee.

:class:`StoreRaceMachine` extends the basic put/get/corrupt coverage in
``test_serve_stateful.py`` with the *multi-writer* filesystem shapes the
store's atomic-rename protocol exists for: a second writer landing a
valid entry via ``os.replace`` mid-sequence, a crashed writer leaving a
``.tmp-*`` file in the entry directory, and torn bytes appearing under a
live key.  Whatever interleaving hypothesis finds, a read must return a
*valid complete* payload (the latest landed one) or a clean miss — never
partial or corrupt bytes — and stray temp files must not leak into
``stats()`` or survive ``clear()``.

:class:`CodeCacheMachine` drives :class:`repro.machine.codecache` the
same way: random runs over a small program portfolio interleaved with
on-disk sabotage (stale cross-program plants, booby-trapped code blobs,
torn entry files, crashed-writer temp files, cache clears).  Every run
must produce the program's known-correct result no matter what state the
cache directory is in, and the hit/miss/invalidated counters must match
an explicit model of what each run should have observed — an
invalidation that silently executed, or a poisoned module that was
served as a hit, is a property violation even when the value happens to
survive.
"""

from __future__ import annotations

import os
import tempfile

from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.machine import codecache
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine
from repro.service.store import ArtifactStore, CacheKey, _encode_entry

from tests.conftest import build_sum_loop, tiny_memory

STORE_KEYS = ("alpha", "beta", "gamma")


# ----------------------------------------------------------------------
# Machine 1: the store under simulated concurrent writers
# ----------------------------------------------------------------------
class StoreRaceMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self._tmp = tempfile.TemporaryDirectory(prefix="repro-store-race-")
        self.store = ArtifactStore(self._tmp.name)
        #: name -> the one payload a read may legally return (the last
        #: *landed* write, no matter which writer landed it).
        self.model: dict[str, dict] = {}
        self.tmp_files: list[str] = []
        self.seq = 0

    def teardown(self) -> None:
        self._tmp.cleanup()
        super().teardown()

    def _key(self, name: str) -> CacheKey:
        return CacheKey.make("run", name, "tiny", "fp0")

    # -- writers --------------------------------------------------------
    @rule(name=st.sampled_from(STORE_KEYS), value=st.integers(0, 1 << 30))
    def put(self, name, value) -> None:
        payload = {"value": value, "writer": "local"}
        self.store.put(self._key(name), payload)
        self.model[name] = payload

    @rule(name=st.sampled_from(STORE_KEYS), value=st.integers(0, 1 << 30))
    def concurrent_writer_lands(self, name, value) -> None:
        """A second process's put: full temp-write + atomic rename done
        behind our back.  After the rename, reads see *its* payload."""
        key = self._key(name)
        payload = {"value": value, "writer": "remote"}
        path = self.store._entry_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            prefix=".tmp-", suffix=".json", dir=path.parent
        )
        with os.fdopen(fd, "w") as handle:
            handle.write(_encode_entry(key, payload))
        os.replace(tmp_name, path)
        self.model[name] = payload

    @rule(name=st.sampled_from(STORE_KEYS))
    def concurrent_writer_crashes_mid_put(self, name) -> None:
        """A writer that died between temp-write and rename: its
        ``.tmp-*`` file sits in the entry directory forever.  It must be
        invisible — not an entry, not readable state."""
        key = self._key(name)
        path = self.store._entry_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        self.seq += 1
        tmp = path.parent / f".tmp-crashed-{self.seq}.json"
        tmp.write_text('{"partial": ')
        self.tmp_files.append(str(tmp))

    @rule(name=st.sampled_from(STORE_KEYS))
    def torn_write_appears(self, name) -> None:
        """Torn bytes under a live key (bit rot, non-atomic copy): the
        next read quarantines and misses; it never returns garbage."""
        if name not in self.model:
            return
        path = self.store._entry_path(self._key(name))
        path.write_text('{"payload": {"value"')
        assert self.store.get(self._key(name)) is None
        del self.model[name]

    # -- readers --------------------------------------------------------
    @rule(name=st.sampled_from(STORE_KEYS))
    def get(self, name) -> None:
        got = self.store.get(self._key(name))
        assert got == self.model.get(name)
        if got is not None:
            assert got["writer"] in ("local", "remote")

    @rule()
    def clear(self) -> None:
        self.store.clear()
        self.model.clear()
        self.tmp_files = [t for t in self.tmp_files if os.path.exists(t)]
        assert not self.tmp_files  # clear() sweeps crashed temps too

    # -- invariants -----------------------------------------------------
    @invariant()
    def entry_count_ignores_temp_files(self) -> None:
        assert self.store.stats()["entries"] == len(self.model)

    @invariant()
    def reads_match_model(self) -> None:
        for name in STORE_KEYS:
            assert self.store.get(self._key(name)) == self.model.get(name)


TestStoreRace = StoreRaceMachine.TestCase


# ----------------------------------------------------------------------
# Machine 2: the code cache never serves a poisoned module
# ----------------------------------------------------------------------
#: Distinct trip counts give distinct IR fingerprints (the loop bound is
#: an IR literal), so cross-planting entries between programs is exactly
#: the stale-module scenario the embedded fingerprint exists to catch.
PROGRAMS = {"p20": 20, "p24": 24, "p28": 28}
ENGINES = ("turbo", "translate")


class CodeCacheMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self._tmp = tempfile.TemporaryDirectory(prefix="repro-codecache-sm-")
        self.cache_dir = os.path.join(self._tmp.name, "cache")
        self.cache = codecache.resolve(self.cache_dir)
        self.config = MachineConfig(
            memory=tiny_memory(), code_cache=self.cache_dir
        )
        self.programs = {
            name: build_sum_loop(n=n) for name, n in PROGRAMS.items()
        }
        #: (program, engine) -> "absent" | "valid" | "poisoned" | "torn"
        self.state: dict[tuple[str, str], str] = {}
        #: What the counters must have accumulated to.
        self.want = {"hits": 0, "misses": 0, "invalidated": 0}
        self.seq = 0

    def teardown(self) -> None:
        codecache.forget(self.cache_dir)
        self._tmp.cleanup()
        super().teardown()

    def _key(self, program: str, engine: str) -> CacheKey:
        module, _, _ = self.programs[program]
        return self.cache.key(module.function("main"), self.config, engine)

    def _entry_state(self, program: str, engine: str) -> str:
        return self.state.get((program, engine), "absent")

    # -- the one observable operation -----------------------------------
    @rule(program=st.sampled_from(sorted(PROGRAMS)),
          engine=st.sampled_from(ENGINES))
    def run(self, program, engine) -> None:
        """Whatever the cache directory holds, a run returns the
        program's known-correct value and books exactly one of
        hit/miss/invalidated according to the entry's true state."""
        module, space, expected = self.programs[program]
        result = Machine(
            module, space, config=self.config, engine=engine
        ).run("main")
        assert result.value == expected
        entry_state = self._entry_state(program, engine)
        if entry_state == "valid":
            self.want["hits"] += 1
        elif entry_state == "poisoned":
            self.want["invalidated"] += 1
        else:  # absent, or torn bytes quarantined by the store layer
            self.want["misses"] += 1
        # Every non-hit path recompiles and re-puts a valid entry.
        self.state[(program, engine)] = "valid"

    # -- sabotage -------------------------------------------------------
    @rule(program=st.sampled_from(sorted(PROGRAMS)),
          engine=st.sampled_from(ENGINES),
          victim=st.sampled_from(sorted(PROGRAMS)))
    def plant_stale_module(self, program, engine, victim) -> None:
        """Copy another program's compiled payload under this key — the
        cache-dir-copied scenario.  The embedded IR fingerprint must
        flag it on the next load."""
        if program == victim:
            return
        if (
            self._entry_state(program, engine) != "valid"
            or self._entry_state(victim, engine) != "valid"
        ):
            return
        stale = self.cache.store.get(self._key(victim, engine))
        assert stale is not None
        self.cache.store.put(self._key(program, engine), stale)
        self.state[(program, engine)] = "poisoned"

    @rule(program=st.sampled_from(sorted(PROGRAMS)),
          engine=st.sampled_from(ENGINES))
    def booby_trap_blobs(self, program, engine) -> None:
        """Valid-looking metadata, hostile code blobs: loading must
        invalidate, never execute garbage."""
        if self._entry_state(program, engine) != "valid":
            return
        key = self._key(program, engine)
        payload = self.cache.store.get(key)
        assert payload is not None
        if engine == "turbo":
            for block in payload["superblocks"]:
                if block is not None:
                    block["code"] = "AAAA"
                    block["code_profiled"] = "AAAA"
            if not any(payload["superblocks"]):
                payload["ir"] = "0" * 16  # no blobs to trap: stale it
        else:
            payload["code"] = "AAAA"
        self.cache.store.put(key, payload)
        self.state[(program, engine)] = "poisoned"

    @rule(program=st.sampled_from(sorted(PROGRAMS)),
          engine=st.sampled_from(ENGINES))
    def tear_entry_file(self, program, engine) -> None:
        """Corrupt the JSON itself: the store quarantines before the
        codecache ever sees a payload, so this books a miss."""
        if self._entry_state(program, engine) == "absent":
            return
        path = self.cache.store._entry_path(self._key(program, engine))
        path.write_text("{torn")
        self.state[(program, engine)] = "torn"

    @rule(program=st.sampled_from(sorted(PROGRAMS)),
          engine=st.sampled_from(ENGINES))
    def crashed_writer_temp(self, program, engine) -> None:
        path = self.cache.store._entry_path(self._key(program, engine))
        path.parent.mkdir(parents=True, exist_ok=True)
        self.seq += 1
        (path.parent / f".tmp-race-{self.seq}.json").write_text("{")

    @rule()
    def clear(self) -> None:
        self.cache.store.clear()
        self.state.clear()

    # -- invariants -----------------------------------------------------
    @invariant()
    def counters_match_model(self) -> None:
        assert self.cache.hits == self.want["hits"]
        assert self.cache.misses == self.want["misses"]
        assert self.cache.invalidated == self.want["invalidated"]
        assert self.cache.put_errors == 0

    @invariant()
    def no_unaccounted_entries(self) -> None:
        on_disk = self.cache.store.stats()["by_kind"].get("codecache", 0)
        tracked = sum(
            1 for state in self.state.values() if state != "absent"
        )
        assert on_disk == tracked


TestCodeCacheStateful = CodeCacheMachine.TestCase
