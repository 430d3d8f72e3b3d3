package exec

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDiskEntryDecode drives the persistent-tier entry decoder with
// arbitrary bytes — truncations, bit flips, bad magic, stale versions, hostile
// length fields — and asserts the robustness contract end to end: decoding
// never panics or over-allocates, a successful decode re-encodes to exactly
// the input (so a "valid" entry really is one this writer could have
// produced), and a DiskCache.Get over the same bytes either returns a
// correct hit or quarantines the file and misses — never a silently wrong
// hit, and never a crash.
func FuzzDiskEntryDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeDiskEntry(NewKey("dse/pcu-area", "BlackScholes"), []byte(`{"Area":1.5}`)))
	f.Add(encodeDiskEntry(NewKey(""), nil))
	// A stale-version entry with a valid checksum.
	stale := encodeDiskEntry(NewKey("k"), []byte("v"))
	stale[4]++
	f.Add(recrc(stale))
	// A truncated but otherwise valid entry.
	whole := encodeDiskEntry(NewKey("key"), []byte("value"))
	f.Add(whole[:len(whole)-3])

	f.Fuzz(func(t *testing.T, data []byte) {
		key, val, err := decodeDiskEntry(data)
		if err == nil {
			// Anything the decoder accepts must round-trip byte-for-byte
			// through the encoder; otherwise corrupt input is being
			// normalised into a "valid" entry.
			if re := encodeDiskEntry(key, val); !bytes.Equal(re, data) {
				t.Fatalf("decode accepted bytes that re-encode differently:\n in: %x\nout: %x", data, re)
			}
		}

		// Property check against the full Get path: plant the bytes as some
		// key's entry file and look it up.
		dir := t.TempDir()
		d, derr := OpenDiskCache(dir, 0)
		if derr != nil {
			t.Fatal(derr)
		}
		probe := NewKey("probe")
		if werr := os.WriteFile(d.path(probe), data, 0o644); werr != nil {
			t.Fatal(werr)
		}
		got, ok := d.Get(probe)
		if ok {
			// A hit must be the exact payload of a well-formed entry for
			// this very key — anything else is a silently wrong hit.
			ek, ev, eerr := decodeDiskEntry(data)
			if eerr != nil || ek != probe || !bytes.Equal(got, ev) {
				t.Fatalf("Get returned %q from bytes that are not a valid entry for the probed key", got)
			}
		} else if _, err := os.Stat(d.path(probe)); err == nil {
			// A miss on existing-but-defective bytes must quarantine unless
			// the entry was valid for a different key (left in place).
			if _, _, derr := decodeDiskEntry(data); derr != nil {
				t.Fatal("defective entry was neither served nor quarantined")
			}
		} else if q, _ := filepath.Glob(filepath.Join(dir, "*"+quarantineExt)); len(data) > 0 && len(q) == 0 {
			t.Fatal("entry file vanished without being quarantined")
		}
	})
}
