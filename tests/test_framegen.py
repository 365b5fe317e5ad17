"""Frame-generator tests."""

import hashlib

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.streams import Stream
from repro.trace.stats import compute_trace_stats
from repro.workloads.apps import ALL_APPS, app_by_name
from repro.workloads.families import family_by_name
from repro.workloads.framegen import (
    build_frame_passes,
    build_resources,
    generate_frame_trace,
)
from repro.workloads.replay import capture_frame_commands, replay_command_list
from repro.workloads.sequence import generate_sequence_trace

SCALE = 0.0625  # 1/16 linear: fast frames for tests


@pytest.fixture(scope="module")
def frame_trace():
    return generate_frame_trace(ALL_APPS[0], frame_index=0, scale=SCALE)


def test_trace_nonempty_and_metadata(frame_trace):
    assert len(frame_trace) > 1000
    assert frame_trace.meta["abbrev"] == ALL_APPS[0].abbrev
    assert frame_trace.meta["frame"] == 0
    assert frame_trace.meta["scale"] == SCALE
    assert frame_trace.meta["raw_accesses"] >= len(frame_trace)


def test_deterministic_generation():
    a = generate_frame_trace(ALL_APPS[1], 0, scale=SCALE)
    b = generate_frame_trace(ALL_APPS[1], 0, scale=SCALE)
    assert np.array_equal(a.addresses, b.addresses)
    assert np.array_equal(a.streams, b.streams)


def test_frames_differ(frame_trace):
    other = generate_frame_trace(ALL_APPS[0], 1, scale=SCALE)
    assert not (
        len(other) == len(frame_trace)
        and np.array_equal(other.addresses, frame_trace.addresses)
    )


def test_all_major_streams_present(frame_trace):
    stats = compute_trace_stats(frame_trace)
    for stream in (
        Stream.VERTEX,
        Stream.HIZ,
        Stream.Z,
        Stream.RT,
        Stream.TEXTURE,
        Stream.DISPLAY,
        Stream.OTHER,
    ):
        assert stats.stream_counts[stream] > 0, stream


def test_rt_and_tex_dominate(frame_trace):
    """The Figure-4 shape: RT + TEX carry most of the LLC traffic."""
    stats = compute_trace_stats(frame_trace)
    rt = stats.stream_fraction(Stream.RT)
    tex = stats.stream_fraction(Stream.TEXTURE)
    assert rt + tex > 0.5
    assert stats.stream_fraction(Stream.Z) > 0.05


def test_display_written_once(frame_trace):
    display_mask = frame_trace.stream_mask(Stream.DISPLAY)
    addresses = frame_trace.addresses[display_mask]
    assert frame_trace.writes[display_mask].all()
    assert len(np.unique(addresses)) == len(addresses)


def test_render_to_texture_exists(frame_trace):
    """Some blocks are written by RT and later read by TEX."""
    blocks = frame_trace.block_addresses()
    rt_blocks = set(blocks[frame_trace.stream_mask(Stream.RT)].tolist())
    tex_blocks = set(blocks[frame_trace.stream_mask(Stream.TEXTURE)].tolist())
    assert len(rt_blocks & tex_blocks) > 100


def test_negative_frame_rejected():
    with pytest.raises(WorkloadError):
        generate_frame_trace(ALL_APPS[0], frame_index=-1)


def test_resources_allocated_disjoint():
    rng = np.random.default_rng(0)
    resources = build_resources(app_by_name("BioShock"), SCALE, rng)
    surfaces = [
        resources.back_buffer,
        resources.display,
        resources.depth,
        resources.hiz,
        resources.stencil,
        resources.scene_color,
        *resources.aux_targets,
        *resources.post_targets,
        *resources.dyntex_targets,
        *resources.shadow_maps,
    ]
    ranges = sorted(
        (s.base, s.base + s.size_bytes) for s in surfaces
    )
    for (a0, a1), (b0, b1) in zip(ranges, ranges[1:]):
        assert a1 <= b0


def test_pass_structure():
    rng = np.random.default_rng(0)
    app = app_by_name("StalkerCOP")
    resources = build_resources(app, SCALE, rng)
    passes = build_frame_passes(app, resources, 0, rng)
    names = [p.name for p in passes]
    assert any(name.startswith("shadow") for name in names)
    assert any(name.startswith("main") for name in names)
    assert any(name.startswith("post") for name in names)
    assert names[-1] == "final"
    assert passes[-1].resolve_to is resources.display


def test_post_chain_reads_previous_output():
    rng = np.random.default_rng(0)
    app = app_by_name("Unigine")
    resources = build_resources(app, SCALE, rng)
    passes = build_frame_passes(app, resources, 0, rng)
    posts = [p for p in passes if p.name.startswith("post")]
    assert len(posts) == app.post_passes
    first_sources = [b.source for b in posts[0].draws[0].textures]
    assert resources.scene_color in first_sources


# -- pinned generated traces ------------------------------------------------------

#: sha256 of (addresses, streams, writes, raw_accesses) of generated
#: traces.  Frame traces are memoised on disk by (app, frame, scale)
#: alone, so a generator or render-cache filter that drifts by one
#: access would silently coexist with stale cache entries; these pins
#: make any such drift a test failure.  Update them only together with
#: a deliberate change to what the generator emits.
PINNED_FRAME0_DIGESTS = {
    "3DMarkVAGT1": "015bd44254ff5c2b7a592c2f2672de276f2104e96f2345b7e45385f767cf3a25",
    "3DMarkVAGT2": "7d8b58ef1a6224db738e4850d67e28a6c8fa8c91ddbcd85f873b9c194f878f57",
    "AssnCreed": "2257e06dfa395453855d4f331df24ca55813d4121cefc5cdc45299f6e156c6b6",
    "BioShock": "2d7e0e4a2ebb9ff9dd157d3e172a608a5608e6a62d9f4676a2d8ce8618d34378",
    "DMC": "0fb52d68447e78792e9a06e85e30dfe07221f9492cfbaf2c205eec458a7d4a99",
    "Civilization": "188e220a2f140e2f181899e62140c4fa370086762677a0c02a510779d8c5bfc3",
    "Dirt": "6bd49fcea551c0e240959293a2beae857d4510bf01e3dc6dbe749d7c660e6457",
    "HAWX": "5b6b6a5047a8bc6bacb53f665154ced76a082eee11c77c2ecffe46fc54850c65",
    "Heaven": "ac5c9e92216dbf8c90e1f967f2401b2ca5d374b5a9a119302d45a8a9e327354b",
    "LostPlanet": "ebe5f34d23ef39e1feed6ea4dee6a0e5594849c1186b3d91c7f7f615cc7f5130",
    "StalkerCOP": "876ff5f627461ef3cd70ff9c33763efcc3d02e007cdbef453f44c2e5f086d501",
    "Unigine": "ba64cf057fc0ee02a6360f6024030d580ef093256c91914738032777b93b0776",
}
#: ``coh-hi`` frame 1.
PINNED_COHERENT_DIGEST = (
    "468492aa330c589ae1702a38591894036de1051afae670fb3a479af39e43521b"
)
#: Frames 0-1 of the first app as one ``generate_sequence_trace``.
PINNED_SEQUENCE_DIGEST = (
    "e7b8c4f81de50e837daed6a4f85d88501eacd0c4ba8e7db4f02573d8c6decbf0"
)
#: Frame 0 of the second app, captured and replayed with seed 0.
PINNED_REPLAY_DIGEST = (
    "e32845dafea314569692f3367dde148af576fcefab0017a67c8bfd31042e04a3"
)


def _trace_digest(trace) -> str:
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(trace.addresses, dtype="<u8").tobytes())
    digest.update(np.ascontiguousarray(trace.streams, dtype="u1").tobytes())
    digest.update(np.ascontiguousarray(trace.writes, dtype="?").tobytes())
    digest.update(str(int(trace.meta["raw_accesses"])).encode())
    return digest.hexdigest()


def test_generated_trace_digests():
    got = {
        app.abbrev: _trace_digest(generate_frame_trace(app, 0, scale=SCALE))
        for app in ALL_APPS
    }
    assert got == PINNED_FRAME0_DIGESTS
    coherent = family_by_name("coh-hi").generate(1, SCALE)
    assert _trace_digest(coherent) == PINNED_COHERENT_DIGEST
    sequence = generate_sequence_trace(ALL_APPS[0], num_frames=2, scale=SCALE)
    assert _trace_digest(sequence) == PINNED_SEQUENCE_DIGEST
    commands = capture_frame_commands(ALL_APPS[1], 0, SCALE)
    replayed = replay_command_list(commands, seed=0)
    assert _trace_digest(replayed) == PINNED_REPLAY_DIGEST
