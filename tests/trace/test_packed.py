"""PackedTrace: packing, binary format, replay."""

import hashlib
import io
import struct
import sys

import pytest

from repro.common.errors import SimulationError
from repro.common.params import ProtocolKind, SystemConfig
from repro.system.machine import simulate
from repro.trace.events import MemAccess
from repro.trace.io import read_trace, write_trace
from repro.trace.packed import FORMAT_VERSION, PackedTrace
from repro.trace.workloads import WORKLOADS, build_streams


def fields(stream):
    return [(e.is_write, e.addr, e.size, e.pc, e.think) for e in stream]


def columns(packed, core):
    """One core's packed columns, as ``fields`` lays out a stream."""
    is_write, addr, size, pc, think = packed.core_columns(core)
    return [(bool(w), a, s, p, t)
            for w, a, s, p, t in zip(is_write, addr, size, pc, think)]


def sample_streams():
    return [
        [MemAccess.read(0x100, 8, 0x40, 3), MemAccess.write(0x108, 4, 0x44, 0)],
        [],
        [MemAccess.write(0x2000, 16, 0x50, 7)],
    ]


class TestStreamRoundTrip:
    def test_streams_round_trip_preserves_every_field(self):
        streams = sample_streams()
        packed = PackedTrace.from_streams(streams)
        assert packed.cores == 3
        assert packed.counts == [2, 0, 1]
        assert len(packed) == 3
        for core, orig in enumerate(streams):
            assert fields(orig) == columns(packed, core)

    def test_workload_round_trip_exact(self):
        streams = build_streams("histogram", cores=4, per_core=150)
        packed = PackedTrace.from_streams(streams)
        for core, orig in enumerate(streams):
            assert fields(orig) == columns(packed, core)

    def test_text_io_and_packed_agree(self):
        """MemAccess -> text -> MemAccess -> text, and both pack alike."""
        streams = build_streams("kmeans", cores=4, per_core=100)
        buf = io.StringIO()
        write_trace(streams, buf)
        buf.seek(0)
        back = read_trace(buf)
        assert PackedTrace.from_streams(back) == \
            PackedTrace.from_streams(streams)
        buf2 = io.StringIO()
        write_trace(back, buf2)
        assert buf.getvalue() == buf2.getvalue()

    def test_text_reader_rejects_negative_addr(self):
        text = "#repro-trace v1 cores=1\n0 R -10 8 0 0\n"
        with pytest.raises(SimulationError):
            read_trace(io.StringIO(text))

    @pytest.mark.parametrize("event", [MemAccess.read(1 << 63),
                                       MemAccess.read(0, think=1 << 31)],
                             ids=["addr", "think"])
    def test_field_beyond_its_column_rejected(self, event):
        with pytest.raises(SimulationError):
            PackedTrace.from_streams([[event]])

    def test_equality(self):
        a = PackedTrace.from_streams(sample_streams())
        b = PackedTrace.from_streams(sample_streams())
        assert a == b
        b.core_columns(0)[4][0] += 1  # think column
        assert a != b


class TestBinaryFormat:
    def test_bytes_round_trip(self):
        packed = PackedTrace.from_streams(sample_streams())
        clone = PackedTrace.loads(packed.dumps())
        assert clone == packed

    def test_file_round_trip_via_mmap(self, tmp_path):
        packed = PackedTrace.from_streams(
            build_streams("histogram", cores=4, per_core=80))
        path = tmp_path / "t.bin"
        with open(path, "wb") as fh:
            n = packed.dump(fh)
        assert path.stat().st_size == n
        assert PackedTrace.load(path) == packed

    def test_empty_cores_round_trip(self):
        packed = PackedTrace.from_streams([[], []])
        clone = PackedTrace.loads(packed.dumps())
        assert clone.cores == 2
        assert clone.counts == [0, 0]

    def test_bad_magic_rejected(self):
        with pytest.raises(SimulationError):
            PackedTrace.loads(b"NOTATRACE" + b"\x00" * 32)

    def test_unknown_version_rejected(self):
        blob = bytearray(PackedTrace.from_streams([[]]).dumps())
        blob[8] = FORMAT_VERSION + 1  # version byte follows the 8-byte magic
        with pytest.raises(SimulationError):
            PackedTrace.loads(bytes(blob))

    def test_truncated_file_rejected(self, tmp_path):
        packed = PackedTrace.from_streams(sample_streams())
        blob = packed.dumps()
        for cut in (0, 4, len(blob) // 2, len(blob) - 1):
            with pytest.raises(SimulationError):
                PackedTrace.loads(blob[:cut])
        path = tmp_path / "cut.bin"
        path.write_bytes(blob[:len(blob) - 3])
        with pytest.raises(SimulationError):
            PackedTrace.load(path)

    def test_trailing_garbage_rejected(self):
        blob = PackedTrace.from_streams(sample_streams()).dumps()
        with pytest.raises(SimulationError):
            PackedTrace.loads(blob + b"\x00")

    def test_negative_addr_in_file_rejected(self):
        packed = PackedTrace.from_streams([[MemAccess.read(0x100)]])
        packed.core_columns(0)[1][0] = -5  # addr column
        with pytest.raises(SimulationError):
            PackedTrace.loads(packed.dumps())

    def test_invalid_size_in_file_rejected(self):
        packed = PackedTrace.from_streams([[MemAccess.read(0x100)]])
        packed.core_columns(0)[2][0] = 0  # size column
        with pytest.raises(SimulationError):
            PackedTrace.loads(packed.dumps())

    def test_header_layout_is_stable(self):
        """The on-disk prefix is pinned: magic, version, endian, cores."""
        blob = PackedTrace.from_streams([[], [], []]).dumps()
        magic, version, _, _, cores = struct.unpack_from("<8sBBHI", blob, 0)
        assert magic == b"REPROPKT"
        assert version == FORMAT_VERSION
        assert cores == 3


class TestReplayParity:
    def test_packed_replay_honours_max_accesses(self):
        packed = PackedTrace.from_streams(
            build_streams("kmeans", cores=4, per_core=100))
        config = SystemConfig(protocol=ProtocolKind.MESI, cores=4)
        stats = simulate(packed, config, max_accesses=37).stats
        assert stats.truncated is True
        assert stats.accesses == 37

    def test_packed_rejects_too_many_streams(self):
        packed = PackedTrace.from_streams([[MemAccess.read(0)]] * 8)
        config = SystemConfig(protocol=ProtocolKind.MESI, cores=4)
        with pytest.raises(SimulationError):
            simulate(packed, config)


#: sha256 of ``PackedTrace.from_streams(build_streams(name, cores=4,
#: per_core=200)).dumps()`` for every workload at seed 0.  Column bytes
#: are native-endian, so these hold on little-endian hosts.
PACKED_SHA256 = {
    "apache":
        "8258efec64c015818705dca45ecbbb0fd1e8a92c6dd2b0ee5073fa09b8415033",
    "barnes":
        "b4a9b4ea369934061730f5da3b5ffec35377b16083c4c5a48c1fef1847fbd721",
    "blackscholes":
        "7668fdae66e98c651f69c932c48ec2814032bde6b696126521750838d5046edc",
    "bodytrack":
        "1f1533025ff36e61a2f50ce40ba34fd146d1f98c2a92baed2ad41f66e04e9513",
    "canneal":
        "3eccaf990fe188e5573464fc23cf1045ca4ef3465a072491452dc928419e6351",
    "cholesky":
        "77866b7810de816711be9a6751748f44fb97674c4b094602dea16c68fef843b0",
    "facesim":
        "e7065dede4308301c3be1e34b945e30ebde24c3a31fa7f58c119fa820959cc7b",
    "fft":
        "ebf2c611d0e256f38545fa190fd6fad018a6fe0ae47aa7f4e306f91f80cdc9ec",
    "fluidanimate":
        "d3cb9ccd7c69b2a56c9e47fe85ee394cd61e9cd87d0573776119a988c0ff31d1",
    "h2":
        "57cd37249101776099d8c71e57436e07bf68af6764c659e064ec4871c5fc19b0",
    "histogram":
        "06fa991a6742fdeb62de815bfeb1cc0cf30e3498b3fcb1a234fe207204391c83",
    "kmeans":
        "11a5aeee2a812040706de8f1de46a922395f841522ec09460e99e0957b142f5a",
    "linear-regression":
        "4a8b1364955faaeff59502586c2f1ada5bb3fda3a0de2f55481fde3932221c1f",
    "lu":
        "8780d208ba6b9224d0af755c8927a0215d9ac7ef3f9ab15b307767404d6e074e",
    "matrix-multiply":
        "eef700cb21473e2dbbf9807fbe9dc654a37d85991b86ff71823478c2eb5f97a5",
    "ocean":
        "1b22910fcd4df0cfb08ed35bec0834b1a4aaf7899bd6d0834e97853a86bf5a2e",
    "parkd":
        "21fb182a30e2dd26101e302609043a83ae6307b69af1cea505e35983d513751a",
    "radix":
        "641feb1128ea8236608197f1838f2fe86511ca23468d8dd505914bf6eea89deb",
    "raytrace":
        "2666d4c72ea421f74eaece482a90a4f36fd84406caf8da59460bf61c319d1eab",
    "reverse-index":
        "9e9c23b98ce91ae9a1adf8cc642782efe851ae2a2a7fce2caaf8bff7428069d9",
    "spec-jbb":
        "7c6e432ca1710a83de76e92f5abb26b9c7156c9c5dddd4fe1d34ba0784d73cec",
    "streamcluster":
        "b6c907c338535afc2b727dbd35b7ef114cb3195f101fdadc1d6368a085642057",
    "string-match":
        "1c09e390ada507690a18b3bb11b14a49661baba50948c20a6b71bd5429b5e5be",
    "swaptions":
        "80f44df5aa7b36c17dc21a540efeaae2801514d7fa9e87f80871b248b1ab780b",
    "tradebeans":
        "5ce00c672b6602d4c6145ecbdd7632f7af2461326472626b2ab609a741511cdf",
    "water":
        "6bcb098bfcffc858ecdfabf4ab8d9d9c9729c0fdd0134fbf39580907271aca57",
    "word-count":
        "b8a19cdc664f2e22a1dc15999d48ec26eac81b1ff586106c6adae43c1e44dd7a",
    "x264":
        "d668b3d09b01d1c92171094668871474158f5232df30da8baa5963a53f03a88e",
}


@pytest.mark.skipif(sys.byteorder != "little",
                    reason="digests of little-endian column bytes")
class TestWorkloadBytes:
    def test_every_workload_is_pinned(self):
        assert sorted(PACKED_SHA256) == sorted(WORKLOADS)

    @pytest.mark.parametrize("name", sorted(PACKED_SHA256))
    def test_packed_bytes_unchanged(self, name):
        """Generators and packing draw, order and encode every event
        exactly as the pinned build did."""
        packed = PackedTrace.from_streams(build_streams(name, cores=4,
                                                        per_core=200))
        assert hashlib.sha256(packed.dumps()).hexdigest() == \
            PACKED_SHA256[name]
