package faultinject

// SiteInfo documents one registered fault site (or site family).
type SiteInfo struct {
	// Site is the site name; for a family it is the pattern with the
	// literal placeholder "<i>" in place of the node index.
	Site Site
	// Family reports a parameterized per-node site: concrete names are
	// produced by a constructor (NodeScan, NodeShuffle) and matched by
	// NodeSite, not by string equality.
	Family bool
	// Doc is the one-line behavior description, mirrored in the
	// DESIGN.md fault-site table.
	Doc string
}

// registry is the single source of truth for every fault site the
// repo instruments. A site that is not listed here does not exist:
// the package test walks the whole repository and fails on any site
// string (or Site conversion) that bypasses the registry — stringly-
// typed typos would otherwise silently never fire.
var registry = []SiteInfo{
	{OptPanic, false, "panics inside an optimizer enumeration worker; degrades down the planning ladder"},
	{OptBudget, false, "trips the memory budget at the optimizer memo's next reservation"},
	{EnginePanic, false, "panics inside a per-node join worker; recovered into a *PanicError"},
	{EngineSlow, false, "stalls an engine operator for the armed delay (cancellable)"},
	{EngineBudget, false, "trips the memory budget at an engine operator"},
	{Site("node/<i>/scan"), true, "node <i> fails to serve fragment scans (simulated node death on the read path)"},
	{Site("node/<i>/shuffle"), true, "node <i> fails to accept repartition-join scatter partitions"},
}

// Sites returns the registry of every known fault site, in a fixed
// documentation order. The returned slice is a copy.
func Sites() []SiteInfo {
	out := make([]SiteInfo, len(registry))
	copy(out, registry)
	return out
}

// Registered reports whether site is a known site: either one of the
// fixed constants or a concrete member of a registered per-node
// family. Arming an unregistered site is always a bug — the name can
// never match an instrumented Should call.
func Registered(site Site) bool {
	for _, info := range registry {
		if !info.Family && info.Site == site {
			return true
		}
	}
	if _, kind, ok := NodeSite(site); ok {
		for _, info := range registry {
			if info.Family && string(info.Site) == "node/<i>/"+kind {
				return true
			}
		}
	}
	return false
}
