package trace

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzReadEvents: ReadEvents never panics, and whatever it accepts
// re-encodes line by line through json.Encoder, as a stream Recorder
// writes it, and reads back equal. Seeds are the JSON-lines form of the
// golden lifecycle and every golden under testdata.
func FuzzReadEvents(f *testing.F) {
	var jsonl bytes.Buffer
	enc := json.NewEncoder(&jsonl)
	for _, e := range goldenEvents() {
		if err := enc.Encode(e); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(jsonl.Bytes())
	goldens, err := filepath.Glob(filepath.Join("testdata", "*.golden"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range goldens {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadEvents(bytes.NewReader(data))
		if err != nil {
			return
		}
		var again bytes.Buffer
		enc := json.NewEncoder(&again)
		for _, e := range events {
			if err := enc.Encode(e); err != nil {
				t.Fatalf("re-encoding %+v: %v", e, err)
			}
		}
		back, err := ReadEvents(&again)
		if err != nil {
			t.Fatalf("re-encoded trace rejected: %v\n%s", err, again.Bytes())
		}
		if !reflect.DeepEqual(events, back) {
			t.Fatalf("round trip changed the events:\n read %+v\n back %+v", events, back)
		}
	})
}
