package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"pedal/internal/datasets"
	"pedal/internal/hwmodel"
	"pedal/internal/stats"
)

// goldenLine renders the fields of a Report that a refactor must not
// move: payload size, source CRC, modelled time and its phase split.
func goldenLine(r Report) string {
	var phases []string
	for p, d := range r.Phases {
		if d != 0 {
			phases = append(phases, fmt.Sprintf("%s=%d", stats.Phase(p), d.Nanoseconds()))
		}
	}
	sort.Strings(phases)
	return fmt.Sprintf("out=%d crc=%08x virt=%d [%s]", r.OutBytes, r.MsgCRC, r.Virtual.Nanoseconds(), strings.Join(phases, " "))
}

// TestGoldenReports pins every design's wire size, message CRC and
// virtual-time account on both generations over one fixed 256 KiB slice
// of the Table IV stand-ins (silesia/samba for the lossless designs,
// float32 exaalt for SZ3). The values were recorded before the
// per-operation state and codec-table refactor: neither a wire byte nor a
// modelled nanosecond may move.
func TestGoldenReports(t *testing.T) {
	const off, size = 1 << 20, 256 << 10
	samba := datasets.SilesiaSamba().Bytes()[off : off+size]
	exaalt := datasets.ExaaltDataset1().Bytes()[off : off+size]
	var got []string
	for _, gen := range []hwmodel.Generation{hwmodel.BlueField2, hwmodel.BlueField3} {
		lib := newLib(t, gen)
		run := func(name string, d Design, pipelined bool) {
			dt, data := TypeBytes, samba
			if d.Algo == AlgoSZ3 {
				dt, data = TypeFloat32, exaalt
			}
			compress := lib.Compress
			if pipelined {
				compress = lib.CompressPipelined
			}
			msg, crep, err := compress(d, dt, data)
			if err != nil {
				t.Fatalf("%v %s compress: %v", gen, name, err)
			}
			_, drep, err := lib.Decompress(d.Engine, dt, msg, len(data)+64)
			if err != nil {
				t.Fatalf("%v %s decompress: %v", gen, name, err)
			}
			got = append(got, fmt.Sprintf("%v %s | c %s | d %s", gen, name, goldenLine(crep), goldenLine(drep)))
		}
		for _, d := range Designs() {
			run(d.String(), d, false)
		}
		run("pipelined SoC_DEFLATE", Design{AlgoDeflate, hwmodel.SoC}, true)
	}
	if len(got) != len(goldenReports) {
		for _, g := range got {
			t.Logf("%q,", g)
		}
		t.Fatalf("%d cases, golden table has %d", len(got), len(goldenReports))
	}
	for i := range got {
		if got[i] != goldenReports[i] {
			t.Errorf("case %d moved:\n got  %s\n want %s", i, got[i], goldenReports[i])
		}
	}
}

var goldenReports = []string{
	"BlueField-2 SoC_DEFLATE | c out=84930 crc=91c87d95 virt=15625000 [compression=15625000] | d out=262144 crc=efa71bd0 virt=2083333 [decompression=2083333]",
	"BlueField-2 SoC_zlib | c out=84936 crc=66a58b1b virt=15822784 [compression=15822784] | d out=262144 crc=efa71bd0 virt=2173913 [decompression=2173913]",
	"BlueField-2 SoC_LZ4 | c out=124523 crc=bb0c778e virt=641025 [compression=641025] | d out=262144 crc=efa71bd0 virt=166666 [decompression=166666]",
	"BlueField-2 SoC_SZ3 | c out=79839 crc=6a0eb7f2 virt=2820971 [compression=2820971] | d out=262144 crc=a81f609e virt=1372607 [decompression=1372607]",
	"BlueField-2 C-Engine_DEFLATE | c out=84930 crc=91c87d95 virt=1410620 [buffer_prep=24414 compression=1386206] | d out=262144 crc=efa71bd0 virt=1631671 [buffer_prep=7909 decompression=1623762]",
	"BlueField-2 C-Engine_zlib | c out=84936 crc=66a58b1b virt=1508276 [buffer_prep=24414 compression=1483862] | d out=262144 crc=efa71bd0 virt=1729327 [buffer_prep=7909 decompression=1721418]",
	"BlueField-2 C-Engine_LZ4 | c out=124523 crc=bb0c778e virt=641025 [compression=641025] | d out=262144 crc=efa71bd0 virt=166666 [decompression=166666]",
	"BlueField-2 C-Engine_SZ3 | c out=76977 crc=87191348 virt=3964843 [buffer_prep=7341 compression=3957502] | d out=262144 crc=a81f609e virt=2860174 [buffer_prep=7168 decompression=2853006]",
	"BlueField-2 pipelined SoC_DEFLATE | c out=87557 crc=00000000 virt=3906250 [compression=3906250] | d out=262144 crc=efa71bd0 virt=520833 [decompression=520833]",
	"BlueField-3 SoC_DEFLATE | c out=84930 crc=91c87d95 virt=9259259 [compression=9259259] | d out=262144 crc=efa71bd0 virt=1225490 [decompression=1225490]",
	"BlueField-3 SoC_zlib | c out=84936 crc=66a58b1b virt=9363295 [compression=9363295] | d out=262144 crc=efa71bd0 virt=1275510 [decompression=1275510]",
	"BlueField-3 SoC_LZ4 | c out=124523 crc=bb0c778e virt=378787 [compression=378787] | d out=262144 crc=efa71bd0 virt=98039 [decompression=98039]",
	"BlueField-3 SoC_SZ3 | c out=79839 crc=6a0eb7f2 virt=1674107 [compression=1674107] | d out=262144 crc=a81f609e virt=814672 [decompression=814672]",
	"BlueField-3 C-Engine_DEFLATE | c out=84930 crc=91c87d95 virt=9259259 [compression=9259259] | d out=262144 crc=efa71bd0 virt=342963 [buffer_prep=3954 decompression=339009]",
	"BlueField-3 C-Engine_zlib | c out=84936 crc=66a58b1b virt=9317398 [compression=9317398] | d out=262144 crc=efa71bd0 virt=401102 [buffer_prep=3954 decompression=397148]",
	"BlueField-3 C-Engine_LZ4 | c out=124523 crc=bb0c778e virt=378787 [compression=378787] | d out=262144 crc=efa71bd0 virt=283923 [buffer_prep=5798 decompression=278125]",
	"BlueField-3 C-Engine_SZ3 | c out=76977 crc=87191348 virt=4346946 [compression=4346946] | d out=262144 crc=a81f609e virt=1054608 [buffer_prep=3584 decompression=1051024]",
	"BlueField-3 pipelined SoC_DEFLATE | c out=87557 crc=00000000 virt=2314814 [compression=2314814] | d out=262144 crc=efa71bd0 virt=306372 [decompression=306372]",
}
