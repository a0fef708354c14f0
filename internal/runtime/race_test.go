//go:build race

package runtime

// raceEnabled reports a -race build, where sync.Pool drops a share of Puts
// on purpose, so pooled allocation bounds do not hold.
const raceEnabled = true
