// Package lubm generates LUBM-style university datasets and provides
// the paper's benchmark queries L1–L10 (Table III and the appendix).
//
// The original LUBM-10000 dataset (1.38 billion triples) is replaced
// by a from-scratch generator with the same schema — universities
// contain departments; departments employ professors, enroll students,
// and offer courses; professors publish and advise — scaled by the
// number of universities (see DESIGN.md's substitution table). The
// constants the benchmark queries mention (Department0.University0,
// FullProfessor1's Publication1 at Department2.University6, ...) are
// guaranteed to exist once the scale is at least 7 universities.
package lubm

import (
	"fmt"
	"math/rand"

	"sparqlopt/internal/rdf"
)

// Ontology namespace, as in the original benchmark.
const (
	UB  = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#"
	RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
)

// Config controls the generator. The zero value is not useful; start
// from DefaultConfig.
type Config struct {
	// Universities is the scale factor.
	Universities int
	// Seed makes generation reproducible.
	Seed int64
	// Compact shrinks per-department entity counts (for unit tests).
	Compact bool
}

// DefaultConfig generates seven universities — the smallest scale at
// which every benchmark constant exists.
func DefaultConfig() Config { return Config{Universities: 7, Seed: 1} }

// Generate builds the dataset and commits it in one batch: its first
// epoch holds every triple.
func Generate(cfg Config) *rdf.Dataset {
	if cfg.Universities <= 0 {
		cfg.Universities = 1
	}
	g := &gen{
		ds:  rdf.NewDataset(),
		r:   rand.New(rand.NewSource(cfg.Seed)),
		cfg: cfg,
	}
	for u := 0; u < cfg.Universities; u++ {
		g.university(u)
	}
	g.ds.AddBatch(g.ts)
	return g.ds
}

type gen struct {
	ds  *rdf.Dataset
	ts  []rdf.Triple // the generated triples, committed at the end in one batch
	r   *rand.Rand
	cfg Config
}

func (g *gen) add(s, p, o string) {
	d := g.ds.Dict
	g.ts = append(g.ts, rdf.Triple{S: d.Intern(s), P: d.Intern(p), O: d.Intern(o)})
}
func (g *gen) typ(s, class string)   { g.add(s, RDF+"type", UB+class) }
func (g *gen) rel(s, p, o string)    { g.add(s, UB+p, o) }
func (g *gen) lit(s, p, name string) { g.add(s, UB+p, `"`+name+`"`) }

// counts returns (low, high) scaled down in compact mode.
func (g *gen) count(lo, hi int) int {
	if g.cfg.Compact {
		lo = lo/4 + 1
		hi = hi/4 + 1
	}
	if hi <= lo {
		return lo
	}
	return lo + g.r.Intn(hi-lo)
}

// University URIs follow the original naming scheme.
func universityURI(u int) string { return fmt.Sprintf("http://www.University%d.edu", u) }

func deptURI(u, d int) string {
	return fmt.Sprintf("http://www.Department%d.University%d.edu", d, u)
}

func (g *gen) university(u int) {
	uni := universityURI(u)
	g.typ(uni, "University")
	g.lit(uni, "name", fmt.Sprintf("University%d", u))
	// At least 15 departments so Department12 always exists.
	depts := g.count(15, 20)
	if g.cfg.Compact {
		depts = 4
	}
	for d := 0; d < depts; d++ {
		g.department(u, d)
	}
}

func (g *gen) department(u, d int) {
	uni := universityURI(u)
	dept := deptURI(u, d)
	g.typ(dept, "Department")
	g.rel(dept, "subOrganizationOf", uni)
	g.lit(dept, "name", fmt.Sprintf("Department%d", d))

	// Research groups.
	for i := 0; i < g.count(5, 10); i++ {
		rg := fmt.Sprintf("%s/ResearchGroup%d", dept, i)
		g.typ(rg, "ResearchGroup")
		g.rel(rg, "subOrganizationOf", dept)
	}

	// Courses: undergraduate and graduate.
	courses := make([]string, g.count(10, 16))
	gradCourses := make([]string, g.count(8, 12))
	for i := range courses {
		c := fmt.Sprintf("%s/Course%d", dept, i)
		courses[i] = c
		g.typ(c, "Course")
	}
	for i := range gradCourses {
		c := fmt.Sprintf("%s/GraduateCourse%d", dept, i)
		gradCourses[i] = c
		g.typ(c, "GraduateCourse")
		g.typ(c, "Course")
	}

	// Professors.
	fullProfs := make([]string, g.count(7, 10))
	for i := range fullProfs {
		p := fmt.Sprintf("%s/FullProfessor%d", dept, i)
		fullProfs[i] = p
		g.professor(p, "FullProfessor", dept, uni, courses, gradCourses)
	}
	for i := 0; i < g.count(10, 14); i++ {
		p := fmt.Sprintf("%s/AssociateProfessor%d", dept, i)
		g.professor(p, "AssociateProfessor", dept, uni, courses, gradCourses)
	}
	for i := 0; i < g.count(8, 11); i++ {
		p := fmt.Sprintf("%s/AssistantProfessor%d", dept, i)
		g.professor(p, "AssistantProfessor", dept, uni, courses, gradCourses)
	}

	// Graduate students. The first two are deterministic anchors: they
	// advise with FullProfessor0/1, co-author that professor's
	// Publication0/1, take a course their advisor teaches, and hold an
	// undergraduate degree from their own university — guaranteeing
	// L5, L6, L9 and L10 non-empty results at any seed.
	for i := 0; i < 2+g.count(13, 23); i++ {
		s := fmt.Sprintf("%s/GraduateStudent%d", dept, i)
		g.typ(s, "GraduateStudent")
		g.rel(s, "memberOf", dept)
		anchor := i < 2 && i < len(fullProfs)
		if anchor {
			g.rel(s, "undergraduateDegreeFrom", uni)
		} else {
			g.rel(s, "undergraduateDegreeFrom", universityURI(g.r.Intn(g.cfg.Universities)))
		}
		advisor := fullProfs[g.r.Intn(len(fullProfs))]
		if anchor {
			advisor = fullProfs[i]
		}
		g.rel(s, "advisor", advisor)
		if anchor {
			g.rel(fmt.Sprintf("%s/Publication%d", advisor, i), "publicationAuthor", s)
			g.rel(s, "takesCourse", g.advisorCourse(advisor, gradCourses))
		}
		// Take a few graduate courses; with some probability one of
		// them is taught by the advisor (keeps L9-style joins
		// non-empty without making them trivial).
		taken := map[string]bool{}
		for k := 0; k < 1+g.r.Intn(3); k++ {
			c := gradCourses[g.r.Intn(len(gradCourses))]
			if !taken[c] {
				taken[c] = true
				g.rel(s, "takesCourse", c)
			}
		}
		if g.r.Float64() < 0.4 {
			// The advisor teaches gradCourses[advisorIdx] (see professor()).
			c := g.advisorCourse(advisor, gradCourses)
			if c != "" && !taken[c] {
				g.rel(s, "takesCourse", c)
			}
		}
		// Publications co-authored with the advisor occasionally.
		if g.r.Float64() < 0.3 {
			pub := fmt.Sprintf("%s/Publication%d", advisor, 0)
			g.rel(pub, "publicationAuthor", s)
		}
	}

	// Undergraduate students.
	for i := 0; i < g.count(30, 50); i++ {
		s := fmt.Sprintf("%s/UndergraduateStudent%d", dept, i)
		g.typ(s, "UndergraduateStudent")
		g.rel(s, "memberOf", dept)
		for k := 0; k < 1+g.r.Intn(3); k++ {
			g.rel(s, "takesCourse", courses[g.r.Intn(len(courses))])
		}
		// Some undergraduates have (professor) advisors too.
		if g.r.Float64() < 0.4 {
			adv := fullProfs[g.r.Intn(len(fullProfs))]
			g.rel(s, "advisor", adv)
			// Let some of them take a course their advisor teaches
			// (exercises L8's triangle).
			if g.r.Float64() < 0.5 {
				if c := g.advisorUGCourse(adv, courses); c != "" {
					g.rel(s, "takesCourse", c)
				}
			}
		}
	}
}

// professor emits one professor: type, employment, teaching and
// publications. FullProfessor i deterministically teaches
// gradCourses[i % len] and courses[i % len], so advisorCourse can
// reconstruct the mapping without extra state.
func (g *gen) professor(p, class, dept, uni string, courses, gradCourses []string) {
	g.typ(p, class)
	g.typ(p, "Professor")
	g.rel(p, "worksFor", dept)
	g.lit(p, "name", lastSegment(p))
	g.rel(p, "teacherOf", g.profUGCourse(p, courses))
	g.rel(p, "teacherOf", g.profGradCourse(p, gradCourses))
	// At least two publications, so PublicationN constants for N ≤ 1
	// exist for every professor even in compact mode.
	for i := 0; i < 2+g.count(1, 6); i++ {
		pub := fmt.Sprintf("%s/Publication%d", p, i)
		g.typ(pub, "Publication")
		g.lit(pub, "name", fmt.Sprintf("Pub%d", i))
		g.rel(pub, "publicationAuthor", p)
	}
}

// lastSegment returns the final '/'-separated component of a URI.
func lastSegment(uri string) string {
	for i := len(uri) - 1; i >= 0; i-- {
		if uri[i] == '/' {
			return uri[i+1:]
		}
	}
	return uri
}

// hashIdx derives a stable index for a professor URI.
func hashIdx(p string, n int) int {
	h := 0
	for _, c := range p {
		h = h*31 + int(c)
	}
	if h < 0 {
		h = -h
	}
	return h % n
}

func (g *gen) profUGCourse(p string, courses []string) string {
	return courses[hashIdx(p, len(courses))]
}

func (g *gen) profGradCourse(p string, gradCourses []string) string {
	return gradCourses[hashIdx(p, len(gradCourses))]
}

func (g *gen) advisorCourse(advisor string, gradCourses []string) string {
	return g.profGradCourse(advisor, gradCourses)
}

func (g *gen) advisorUGCourse(advisor string, courses []string) string {
	return g.profUGCourse(advisor, courses)
}
