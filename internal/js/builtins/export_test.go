package builtins

import "comfort/internal/js/interp"

// Template returns the process's realm template, building it on first use.
func Template() *interp.Template {
	templateOnce.Do(buildTemplate)
	return realmTemplate
}
