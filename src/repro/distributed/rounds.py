"""Round rendezvous for shard-composed adaptive campaigns.

Adaptive stopping needs *pooled* statistics: whether a point's interval
is narrow enough — and so whether it draws another extension round —
depends on every shard's samples, not one shard's slice. The
rendezvous is the small filesystem barrier that lets N independent
shard drivers (``--shard I/N``) take those decisions identically:

1. every driver deterministically derives the FULL round job list from
   the campaign spec and executes only its own shard slice;
2. after executing, each driver atomically publishes a round marker
   (``round-00042.shard-2of3.json``) carrying the keys of its failed
   jobs — successful results are already in the shared content-addressed
   cache, published by the spool workers, so the marker only needs to
   say which keys will never appear there;
3. :meth:`RoundRendezvous.gather` blocks until all N markers of the
   round exist, then every driver assembles the identical full-round
   outcome set (own results + cache reads for foreign shards) and runs
   the identical pooled estimate → identical extension decision.

Markers are tiny JSON files under the spool rendezvous directory, named
by campaign content hash so concurrent campaigns never collide, written
with the same atomic tmp-then-rename publish the spool uses. A marker
also records the driver's shard count: a driver gathering a round and
finding a marker with a different ``of N`` fails fast instead of
deadlocking against a mis-launched fleet.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
import time
from pathlib import Path

from ..errors import ConfigurationError, ReproError


class RendezvousError(ReproError):
    """Raised when a shard rendezvous cannot complete (timeout, mismatch)."""


_MARKER = re.compile(r"^round-(\d+)\.shard-(\d+)of(\d+)\.json$")


class RoundRendezvous:
    """Publish/gather barrier for one sharded adaptive campaign.

    ``campaign_id`` must be a pure function of the sampling spec (the
    driver hashes it from the canonical campaign parameters) so that all
    N drivers of one campaign meet under the same directory while
    unrelated campaigns stay isolated.
    """

    def __init__(
        self,
        root: Path | str,
        campaign_id: str,
        shard_index: int,
        shard_count: int,
    ):
        if not campaign_id:
            raise ConfigurationError("rendezvous needs a campaign id")
        if shard_count < 1:
            raise ConfigurationError(f"shard count must be >= 1, got {shard_count}")
        if not 0 <= shard_index < shard_count:
            raise ConfigurationError(
                f"shard index {shard_index} outside [0, {shard_count})"
            )
        self.root = Path(root) / "mc-rounds" / campaign_id
        self.campaign_id = campaign_id
        self.shard_index = shard_index
        self.shard_count = shard_count

    # -- paths ----------------------------------------------------------

    def marker_path(self, round_index: int, shard_index: int) -> Path:
        return self.root / (
            f"round-{round_index:05d}"
            f".shard-{shard_index + 1}of{self.shard_count}.json"
        )

    # -- publish --------------------------------------------------------

    def publish(self, round_index: int, failed_keys: list[str]) -> None:
        """Atomically publish this shard's marker for one round.

        Re-publishing the same round (e.g. a driver restarted after a
        crash, re-served from cache) simply overwrites with identical
        content — the rename is the commit point either way.
        """
        payload = {
            "round": round_index,
            "shard": self.shard_index + 1,
            "of": self.shard_count,
            "failed": sorted(failed_keys),
        }
        path = self.marker_path(round_index, self.shard_index)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    # -- gather ---------------------------------------------------------

    def gather(
        self,
        round_index: int,
        timeout: float = 600.0,
        poll: float = 0.05,
    ) -> dict[int, list[str]]:
        """Wait for all N markers of a round; return failed keys by shard.

        Returns ``{shard_index_0based: [failed job keys]}`` covering
        every shard. Raises :class:`RendezvousError` on timeout or when
        a foreign marker for this round advertises a different shard
        count (two fleets launched with inconsistent ``--shard`` splits
        would otherwise deadlock waiting for each other).
        """
        deadline = time.monotonic() + timeout
        while True:
            self._check_foreign_split(round_index)
            missing = [
                shard
                for shard in range(self.shard_count)
                if not self.marker_path(round_index, shard).exists()
            ]
            if not missing:
                break
            if time.monotonic() >= deadline:
                raise RendezvousError(
                    f"campaign {self.campaign_id} round {round_index}: "
                    f"shards {[s + 1 for s in missing]} of "
                    f"{self.shard_count} never published within {timeout:.0f}s "
                    "— are all shard drivers running?"
                )
            time.sleep(poll)
        failed: dict[int, list[str]] = {}
        for shard in range(self.shard_count):
            path = self.marker_path(round_index, shard)
            try:
                payload = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise RendezvousError(
                    f"unreadable rendezvous marker {path.name}: {exc}"
                ) from exc
            failed[shard] = list(payload.get("failed", []))
        return failed

    def _check_foreign_split(self, round_index: int) -> None:
        """Fail fast when another driver used a different shard count."""
        try:
            names = os.listdir(self.root)
        except OSError:
            return
        for name in names:
            match = _MARKER.match(name)
            if not match:
                continue
            if int(match.group(1)) != round_index:
                continue
            of = int(match.group(3))
            if of != self.shard_count:
                raise RendezvousError(
                    f"campaign {self.campaign_id} round {round_index}: "
                    f"marker {name} was published by a {of}-shard driver "
                    f"but this driver runs --shard "
                    f"{self.shard_index + 1}/{self.shard_count}; all "
                    "drivers of one campaign must use the same split"
                )
