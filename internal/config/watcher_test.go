package config

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func waitNotify(t *testing.T, c <-chan struct{}, within time.Duration) bool {
	t.Helper()
	select {
	case <-c:
		return true
	case <-time.After(within):
		return false
	}
}

func TestWatcherDetectsContentChange(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sdscale.json")
	writeFile(t, path, `{"stages": 4}`)
	w := NewWatcher(path, 10*time.Millisecond)
	defer w.Close()

	writeFile(t, path, `{"stages": 8}`)
	if !waitNotify(t, w.C, 5*time.Second) {
		t.Fatal("watcher missed a content change")
	}
	if w.Changes() == 0 || w.Polls() == 0 {
		t.Fatalf("counters: polls %d changes %d", w.Polls(), w.Changes())
	}
}

func TestWatcherIgnoresSameContentRewrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sdscale.json")
	const body = `{"stages": 4}`
	writeFile(t, path, body)
	w := NewWatcher(path, 10*time.Millisecond)
	defer w.Close()

	// Rewrite the identical bytes: mtime moves, content does not. Give the
	// watcher a few polls to (wrongly) fire.
	time.Sleep(30 * time.Millisecond)
	writeFile(t, path, body)
	if waitNotify(t, w.C, 150*time.Millisecond) {
		t.Fatal("watcher fired on a same-content rewrite")
	}
	if w.Changes() != 0 {
		t.Fatalf("Changes = %d after no-op rewrite", w.Changes())
	}
}

// TestWatcherIgnoresTruncatingRewriteStorm: os.WriteFile truncates the file
// before it writes, so a poll can read it empty. A storm of same-content
// rewrites against a fast poll lands polls in that window; none of them is a
// change.
func TestWatcherIgnoresTruncatingRewriteStorm(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sdscale.json")
	const body = `{"stages": 4}`
	writeFile(t, path, body)
	w := NewWatcher(path, 100*time.Microsecond)
	defer w.Close()

	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		writeFile(t, path, body)
	}
	if got := w.Changes(); got != 0 {
		t.Fatalf("Changes = %d after %d polls of same-content rewrites, want 0", got, w.Polls())
	}
}

func TestWatcherCoalesces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sdscale.json")
	writeFile(t, path, `{"stages": 1}`)
	w := NewWatcher(path, 5*time.Millisecond)
	defer w.Close()

	// Burst of edits; the capacity-1 channel coalesces however many polls
	// caught distinct contents into pending notifications the consumer
	// drains one reload at a time.
	for i := 2; i <= 6; i++ {
		writeFile(t, path, `{"stages": `+string(rune('0'+i))+`}`)
		time.Sleep(12 * time.Millisecond)
	}
	if !waitNotify(t, w.C, 5*time.Second) {
		t.Fatal("no notification after an edit burst")
	}
	// After draining, at most one more token can be pending.
	drained := 0
	for waitNotify(t, w.C, 30*time.Millisecond) {
		drained++
		if drained > 1 {
			t.Fatal("channel did not coalesce")
		}
	}
}

func TestWatcherMissingFileIsNotAChange(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sdscale.json")
	writeFile(t, path, `{"stages": 4}`)
	w := NewWatcher(path, 10*time.Millisecond)
	defer w.Close()

	// Rename-away window: the file vanishes, then reappears with the same
	// content. Neither transition is a content change.
	if err := os.Rename(path, path+".tmp"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(40 * time.Millisecond)
	if err := os.Rename(path+".tmp", path); err != nil {
		t.Fatal(err)
	}
	if waitNotify(t, w.C, 150*time.Millisecond) {
		t.Fatal("watcher fired across a same-content rename window")
	}
}

func TestWatcherSetInterval(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sdscale.json")
	writeFile(t, path, `{"stages": 4}`)
	w := NewWatcher(path, time.Hour) // effectively never polls on its own
	defer w.Close()

	writeFile(t, path, `{"stages": 8}`)
	w.SetInterval(10 * time.Millisecond)
	if !waitNotify(t, w.C, 5*time.Second) {
		t.Fatal("SetInterval did not wake the poll loop")
	}
}

func TestReloaderAcceptAndReject(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sdscale.json")
	writeFile(t, path, `{"stages": 4, "interval": "1s"}`)
	cur, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReloader(path, cur)

	// Accept: interval change comes back as the delta, Current advances.
	writeFile(t, path, `{"stages": 4, "interval": "500ms"}`)
	next, d, err := r.Reload()
	if err != nil {
		t.Fatalf("Reload: %v", err)
	}
	if d.Interval == nil || *d.Interval != 500*time.Millisecond {
		t.Fatalf("delta = %v", d)
	}
	if r.Current() != next || r.Reloads() != 1 || r.Rejects() != 0 {
		t.Fatalf("reloader state: cur %p next %p reloads %d rejects %d",
			r.Current(), next, r.Reloads(), r.Rejects())
	}

	// Reject: unparseable file keeps the old config and counts the reject.
	writeFile(t, path, `{"stages": }`)
	if _, _, err := r.Reload(); err == nil {
		t.Fatal("Reload accepted garbage")
	}
	if r.Current() != next || r.Rejects() != 1 {
		t.Fatalf("garbage reload moved state: cur %p rejects %d", r.Current(), r.Rejects())
	}

	// Reject: valid JSON but unsafe delta also keeps the old config.
	writeFile(t, path, `{"stages": 4, "interval": "500ms", "standbys": 1}`)
	_, _, err = r.Reload()
	if err == nil || !strings.Contains(err.Error(), "unsafe") {
		t.Fatalf("unsafe reload error = %v", err)
	}
	if r.Current() != next || r.Rejects() != 2 || r.Reloads() != 1 {
		t.Fatalf("unsafe reload moved state: rejects %d reloads %d", r.Rejects(), r.Reloads())
	}
}

func TestLoadMissingFile(t *testing.T) {
	_, err := Load(filepath.Join(t.TempDir(), "nope.json"))
	if err == nil {
		t.Fatal("Load accepted a missing file")
	}
}
