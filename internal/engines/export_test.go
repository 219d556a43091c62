package engines

import (
	"comfort/internal/js/builtins"
	"comfort/internal/js/interp"
)

// UseFreshRealms makes every execution build its realm with a fresh
// standard-library Install instead of copying the realm template, until
// the returned restore runs. Not safe while executions are in flight.
func UseFreshRealms() (restore func()) {
	newRuntime = func(cfg interp.Config) *interp.Interp {
		in := interp.New(cfg)
		builtins.Install(in)
		return in
	}
	return func() { newRuntime = builtins.NewRuntime }
}
