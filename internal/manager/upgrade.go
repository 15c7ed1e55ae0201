package manager

import (
	"cmp"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"strings"

	"safehome/internal/journal"
)

// formatGeneration is the on-disk format this build reads and writes; a data
// directory records its own in formatFile.
const formatGeneration, formatFile = 1, "FORMAT"

// afterUpgradeStep, when non-nil, runs after each durable step of the
// upgrade; an error stops the upgrade there, as a crash would. A test hook.
var afterUpgradeStep func() error

// upgradeDataDir is the upgrade step, the one place that knows what older
// builds left in a data directory. The manager runs it holding the fleet's
// wal.lock, before anything reads homes/. A current directory costs one read;
// a newer one is refused without a write (downgrading is unsupported).
// An older one, or one without a generation, is converted: a hub's root-level
// files move into homes/hub, every home is folded into one headed checkpoint
// (journal.UpgradeHome), and the generation is published. Every step is
// idempotent and the generation comes last, so after a crash at any step the
// next boot converts the directory again, to the same result.
func (m *Manager) upgradeDataDir() error {
	dataDir := m.cfg.DataDir
	if buf, err := os.ReadFile(filepath.Join(dataDir, formatFile)); !os.IsNotExist(err) {
		var gen int
		_, serr := fmt.Sscan(string(buf), &gen)
		switch {
		case err != nil || serr != nil:
			return fmt.Errorf("reading the format generation of %s: %w", dataDir, cmp.Or(err, serr))
		case gen > formatGeneration:
			return fmt.Errorf("%s is format generation %d, newer than this build's %d", dataDir, gen, formatGeneration)
		case gen == formatGeneration:
			return nil
		}
	}
	run := func(steps []func() error, err error) error {
		for i := 0; err == nil && i < len(steps); i++ {
			if err = steps[i](); err == nil && afterUpgradeStep != nil {
				err = afterUpgradeStep()
			}
		}
		return err
	}
	// What a hub kept at the root before it was a one-home manager moves
	// into homes/hub. ReadDir sorts by name, so walking it backwards moves
	// checkpoint.ckpt last: the move is unfinished while it is at the root.
	root, hub := journal.DirStore{Dir: dataDir}, journal.DirStore{Dir: HomeDir(dataDir, "hub")}
	entries, err := os.ReadDir(dataDir)
	var moves []func() error
	for i := len(entries) - 1; i >= 0; i-- {
		switch n := entries[i].Name(); {
		case n == "checkpoint.ckpt", n == "poison.json", n == "journal.lock", strings.HasPrefix(n, "ckchunk-"),
			strings.HasPrefix(n, "wal-") && strings.HasSuffix(n, ".seg"):
			moves = append(moves, func() error { return root.MoveTo(hub, n) })
		}
	}
	err = run(moves, err)
	homes, lerr := os.ReadDir(filepath.Join(dataDir, "homes"))
	if err == nil && !os.IsNotExist(lerr) {
		err = lerr
	}
	for i := 0; err == nil && i < len(homes); i++ {
		if dir := homes[i].Name(); homes[i].IsDir() {
			name, _ := url.PathUnescape(dir) // "" for a name no ID escapes to
			err = run(journal.UpgradeHome(filepath.Join(dataDir, "homes", dir), cmp.Or(name, dir), *m.freshSummary()))
		}
	}
	gen := []byte(fmt.Sprintln(formatGeneration))
	if err = run([]func() error{func() error { return journal.DirStore{Dir: dataDir}.Put(formatFile, gen) }}, err); err != nil {
		return fmt.Errorf("upgrading %s: %w", dataDir, err)
	}
	return nil
}
