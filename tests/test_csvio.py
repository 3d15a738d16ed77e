"""Tests for CSV trace interchange."""

import numpy as np
import pytest

from repro.net.packet import PacketKind
from repro.traffic.batch import BATCH_COLUMNS, PacketBatch
from repro.traffic.csvio import load_csv, save_csv
from repro.traffic.trace import Trace

from packet_columns import batch_of


class TestCsvRoundtrip:
    def test_roundtrip(self, tmp_path, small_trace):
        path = str(tmp_path / "t.csv")
        save_csv(small_trace, path)
        loaded = load_csv(path)
        assert len(loaded) == len(small_trace)
        for a, b in zip(small_trace, loaded):
            assert a.flow_key == b.flow_key
            assert a.size == b.size
            assert a.ts == pytest.approx(b.ts, abs=1e-9)
            assert a.kind == b.kind

    def test_without_kind_column(self, tmp_path, small_trace):
        path = str(tmp_path / "t.csv")
        save_csv(small_trace, path, include_kind=False)
        loaded = load_csv(path)
        assert all(p.kind == PacketKind.REGULAR for p in loaded)

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("ts,src\n0.0,10.0.0.1\n")
        with pytest.raises(ValueError, match="missing columns"):
            load_csv(str(path))

    def test_bad_row_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("ts,src,dst,sport,dport,proto,size\n"
                        "0.0,10.0.0.1,10.0.0.2,1,2,6,100\n"
                        "0.1,not-an-ip,10.0.0.2,1,2,6,100\n")
        with pytest.raises(ValueError, match="line 3"):
            load_csv(str(path))

    def test_short_row_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("ts,src,dst,sport,dport,proto,size\n"
                        "0.0,10.0.0.1,10.0.0.2,1,2,6,100\n"
                        "0.1,10.0.0.1,10.0.0.2,1,2\n")
        with pytest.raises(ValueError) as short:
            load_csv(str(path))
        assert str(short.value) == "bad CSV trace row at line 3: no value for proto, size"

    def test_row_without_its_kind_field_is_regular(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("ts,src,dst,sport,dport,proto,size,kind\n"
                        "0.0,10.0.0.1,10.0.0.2,1,2,6,100,2\n"
                        "0.1,10.0.0.1,10.0.0.2,1,2,6,100\n")
        assert load_csv(str(path)).batch.kind.tolist() == [int(PacketKind.CROSS),
                                                            int(PacketKind.REGULAR)]

    def test_unsorted_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("ts,src,dst,sport,dport,proto,size\n"
                        "1.0,10.0.0.1,10.0.0.2,1,2,6,100\n"
                        "0.5,10.0.0.1,10.0.0.2,1,2,6,100\n")
        with pytest.raises(ValueError, match="not time-sorted"):
            load_csv(str(path))

    def test_empty_trace(self, tmp_path):
        path = str(tmp_path / "empty.csv")
        save_csv(Trace(PacketBatch.empty()), path)
        assert len(load_csv(path)) == 0


def per_row_batch(path):
    """The columns a per-row ``Packet`` construction gives (the loader's
    oracle): one Packet per row, then columnarized."""
    import csv

    from repro.net.addressing import ip_to_int
    from repro.net.packet import Packet

    with open(path, newline="") as handle:
        packets = [
            Packet(src=ip_to_int(row["src"]), dst=ip_to_int(row["dst"]),
                   sport=int(row["sport"]), dport=int(row["dport"]),
                   proto=int(row["proto"]), size=int(row["size"]),
                   ts=float(row["ts"]),
                   kind=(PacketKind(int(row["kind"])) if row.get("kind")
                         else PacketKind.REGULAR))
            for row in csv.DictReader(handle)
        ]
    return batch_of(packets)


class TestColumnarLoader:
    ROWS = ("0.000000001,10.1.0.5,10.2.0.9,1234,80,6,1500,0\n"
            "0.002,10.1.0.6,10.2.0.9,999,53,17,64,1\n"
            "0.002,10.9.0.1,10.10.0.1,5,6,6,600,2\n"
            "1.5,255.255.255.255,0.0.0.0,65535,0,255,40,\n")

    @pytest.mark.parametrize("with_kind", [True, False])
    def test_columns_match_per_row_packets(self, tmp_path, with_kind):
        path = tmp_path / "t.csv"
        header = "ts,src,dst,sport,dport,proto,size" + (",kind" if with_kind else "")
        rows = self.ROWS if with_kind else "".join(
            line.rsplit(",", 1)[0] + "\n" for line in self.ROWS.splitlines())
        path.write_text(header + "\n" + rows)
        loaded = load_csv(str(path))
        want = per_row_batch(str(path))
        for name in BATCH_COLUMNS:
            got = getattr(loaded.batch, name)
            assert got.dtype == getattr(want, name).dtype, name
            assert got.tolist() == getattr(want, name).tolist(), name
        kinds = loaded.batch.kind.tolist()
        assert kinds == ([0, 1, 2, 0] if with_kind else [0, 0, 0, 0])

    def test_generated_trace_columns_survive(self, tmp_path, small_trace):
        path = str(tmp_path / "t.csv")
        save_csv(small_trace, path)
        loaded = load_csv(path)
        want = per_row_batch(path)
        for name in BATCH_COLUMNS:
            assert np.array_equal(getattr(loaded.batch, name),
                                  getattr(want, name)), name

    def test_error_messages(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("ts,src,sport\n0.0,10.0.0.1,1\n")
        with pytest.raises(ValueError) as missing:
            load_csv(str(path))
        assert str(missing.value) == (
            "CSV trace missing columns: ['dst', 'dport', 'proto', 'size']")
        path.write_text("ts,src,dst,sport,dport,proto,size,kind\n"
                        "0.0,10.0.0.1,10.0.0.2,1,2,6,100,0\n"
                        "0.1,10.0.0.1,10.0.0.2,1,2,6,100,7\n")
        with pytest.raises(ValueError) as bad_kind:
            load_csv(str(path))
        assert str(bad_kind.value) == (
            "bad CSV trace row at line 3: 7 is not a valid PacketKind")
        path.write_text("ts,src,dst,sport,dport,proto,size\n"
                        "0.5,10.0.0.1,10.0.0.2,1,2,6,100\n"
                        "0.5,10.0.0.1,10.0.0.2,1,2,6,100\n"
                        "0.4,10.0.0.1,10.0.0.2,1,2,6,100\n")
        with pytest.raises(ValueError) as unsorted:
            load_csv(str(path))
        assert str(unsorted.value) == "CSV trace not time-sorted at line 4"
