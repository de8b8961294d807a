package main

// The seeded input generator. Every Dockerfile, build context and request
// schedule a workload uses comes from here, drawn from one *rand.Rand
// seeded by --seed: the same seed yields byte-identical inputs, a
// different seed different ones. The program under test receives only the
// generated inputs.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/pkgmgr"
)

// distro is one base image of the simulated world with the
// package-manager RUN lines that install something on it.
type distro struct {
	name     string // pkgmgr's distro name
	base     string
	installs []string
}

// distros lists the base images with the install lines the repository's
// own Dockerfiles run on them (examples/, cmd/experiments E18/E19).
var distros = []distro{
	{pkgmgr.DistroAlpine, "alpine:3.19", []string{"apk add sl"}},
	{pkgmgr.DistroCentOS7, "centos:7", []string{"yum install -y openssh", "yum install -y openssh fipscheck"}},
	{pkgmgr.DistroDebian, "debian:12", []string{"apt-get install -y curl"}},
}

// span is an inclusive [lo, hi] range a property is drawn from.
type span [2]int

// frac is a share num/den of draws, dealt exactly: each block of den
// draws holds num hits.
type frac [2]int

// deck deals a property's values in shuffled blocks: each block holds
// every card once, so any run of draws carries close to the block's mix
// (stratified sampling). The seed decides the order and every other
// detail of the inputs; the workload's aggregate properties — its store
// size, its share of package installs — barely move between seeds.
type deck struct {
	cards []int
	next  int
}

// deal returns the next card of the deck named key, building it with
// cards on first use and reshuffling it at the end of each block.
func (g *gen) deal(key string, cards func() []int) int {
	d := g.decks[key]
	if d == nil {
		d = &deck{cards: cards()}
		d.next = len(d.cards)
		g.decks[key] = d
	}
	if d.next == len(d.cards) {
		g.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.next = 0
	}
	d.next++
	return d.cards[d.next-1]
}

// chance deals true for the share f of draws.
func (g *gen) chance(key string, f frac) bool {
	if f[0] <= 0 {
		return false
	}
	return g.deal(key, func() []int {
		c := make([]int, f[1])
		for i := 0; i < f[0]; i++ {
			c[i] = 1
		}
		return c
	}) == 1
}

// weighted deals index i with weight w[i] per block.
func (g *gen) weighted(key string, w []int) int {
	return g.deal(key, func() []int {
		var c []int
		for i, n := range w {
			for ; n > 0; n-- {
				c = append(c, i)
			}
		}
		return c
	})
}

// size deals a value in s: every value once per block for a narrow
// range, 32 evenly spaced values for a wide one.
func (g *gen) size(key string, s span) int {
	return g.deal(key, func() []int {
		n := s[1] - s[0] + 1
		if n <= 32 {
			c := make([]int, n)
			for i := range c {
				c[i] = s[0] + i
			}
			return c
		}
		c := make([]int, 32)
		for i := range c {
			c[i] = s[0] + (2*i+1)*(n-1)/64
		}
		return c
	})
}

// index deals one of 0..n-1, each once per block.
func (g *gen) index(key string, n int) int {
	return g.size(fmt.Sprintf("%s/%d", key, n), span{0, n - 1})
}

// Profile is the set of input properties Dockerfiles are drawn from.
// Weights and shares are counts over a corpus; interactions.json records
// the source of each value.
type Profile struct {
	Distros [3]int `json:"distro_weights_alpine_centos_debian"`
	// Body is dealt card by card: one card per corpus stage, its count of
	// instructions other than FROM, the package install and COPY --from.
	Body         []int `json:"body_instructions_per_stage"`
	InstallShare frac  `json:"package_install_share"`
	// PrefixShare is the share of installs placed before the file's
	// unique ENV line: files on one base with one install then share
	// that cached step, as the corpus's files do.
	PrefixShare frac   `json:"shared_install_share"`
	Kinds       [3]int `json:"body_weights_meta_copy_run"`
	// Metas weights the metadata instructions ARG, ENV, WORKDIR, CMD.
	Metas      [4]int `json:"meta_weights_arg_env_workdir_cmd"`
	Fanout     span   `json:"files_per_run"`
	TouchShare frac   `json:"touched_file_share"`
	ChmodShare frac   `json:"chmod_share"`
	EchoBytes  span   `json:"bytes_per_echoed_file"`
	CopyBytes  span   `json:"bytes_per_copied_file"`
	MultiStage frac   `json:"multi_stage_share"`
}

// corpus is the profile every workload draws from, counted over the
// eight Dockerfiles the repository holds: examples/quickstart,
// centos7-rpm, apt-sandbox and hpc-app, cmd/experiments E18 and E19, and
// cmd/loadgen's warm variant and cold build.
var corpus = Profile{
	Distros:      [3]int{5, 2, 1},
	Body:         []int{0, 0, 0, 7, 1, 0, 1, 1, 0, 4, 2},
	InstallShare: frac{7, 11},
	PrefixShare:  frac{5, 7},
	Kinds:        [3]int{6, 2, 8},
	Metas:        [4]int{1, 2, 1, 2},
	Fanout:       span{1, 1},
	TouchShare:   frac{1, 8},
	ChmodShare:   frac{2, 8},
	EchoBytes:    span{6, 14},
	CopyBytes:    span{21, 48},
	MultiStage:   frac{2, 8},
}

// Dockerfile is one generated build input plus what a correct build of
// it must produce.
type Dockerfile struct {
	Text    string
	Context map[string][]byte
	// Cacheable counts the RUN/COPY instructions of the stages a build
	// runs: what a build that shares no cached step executes.
	Cacheable int
	// Files maps each path the generator wrote into the final stage to
	// the contents it must hold in the built image.
	Files  map[string]string
	Distro string
	Stages int
}

// gen draws Dockerfiles for one workload.
type gen struct {
	rng   *rand.Rand
	p     Profile
	decks map[string]*deck
}

func newGen(seed int64, p Profile) *gen {
	return &gen{rng: rand.New(rand.NewSource(seed)), p: p, decks: map[string]*deck{}}
}

func (g *gen) pickDistro() int { return g.weighted("distro", g.p.Distros[:]) }

// install deals one of distro d's package-install commands.
func (g *gen) install(d int) string {
	ins := distros[d].installs
	return ins[g.index("install-pick", len(ins))]
}

// stage draws one stage into b: its FROM, the package install, an ENV
// line carrying id and a body. id makes every cacheable step after the
// ENV line one no earlier build has run; a shared install comes before
// it, so files on one base with one install share that cached step. With
// shareable false nothing of the stage can be cached. With needStep set
// a stage left without a RUN or COPY gets one RUN, as every stage of the
// corpus has one.
func (g *gen) stage(b *body, d int, as, id string, shareable, needStep bool) {
	from := "FROM " + distros[d].base
	if as != "" {
		from += " AS " + as
	}
	b.lines = append(b.lines, from)
	var install string
	if g.chance("install", g.p.InstallShare) {
		install = "RUN " + g.install(d)
		b.cacheable++
		if shareable && g.chance("prefix", g.p.PrefixShare) {
			b.lines = append(b.lines, install)
			install = ""
		}
	}
	b.lines = append(b.lines, "ENV BUILD_ID="+id)
	if install != "" {
		b.lines = append(b.lines, install)
	}
	for n := g.deal("body", func() []int { return append([]int(nil), g.p.Body...) }); n > 0; n-- {
		b.instruction()
	}
	if needStep && b.cacheable == 0 {
		b.run()
	}
}

// file draws one Dockerfile; id is folded into each stage's ENV line.
func (g *gen) file(id string, shareable bool) Dockerfile {
	df := Dockerfile{Context: map[string][]byte{}, Files: map[string]string{}, Stages: 1}
	var lines []string
	var artifacts map[string]string
	if g.chance("multi-stage", g.p.MultiStage) {
		// A first stage whose output directory the final stage copies,
		// the builder pattern of E18 and E19.
		b := body{g: g, dir: "/out", first: true, ctx: df.Context, files: map[string]string{}}
		// Its own id keeps its steps from being the final stage's.
		g.stage(&b, g.pickDistro(), "compile", id+"-build", shareable, false)
		artifacts = map[string]string{}
		for p, c := range b.files {
			if strings.HasPrefix(p, "/out/") {
				artifacts[p] = c
			}
		}
		if len(artifacts) == 0 {
			// The first stage wrote nothing to copy: give it one artifact.
			content := g.word("echo-bytes", g.p.EchoBytes)
			b.lines = append(b.lines, "RUN mkdir -p /out && echo "+content+" > /out/artifact")
			artifacts["/out/artifact"] = content + "\n"
			b.cacheable++
		}
		lines = b.lines
		df.Cacheable += b.cacheable
		df.Stages = 2
	}

	d := g.pickDistro()
	df.Distro = distros[d].name
	b := body{g: g, dir: "/app", ctx: df.Context, files: df.Files}
	g.stage(&b, d, "", id, shareable, artifacts == nil)
	lines = append(lines, b.lines...)
	df.Cacheable += b.cacheable
	if artifacts != nil {
		lines = append(lines, "COPY --from=compile /out /opt/artifacts/")
		df.Cacheable++
		for p, c := range artifacts {
			df.Files["/opt/artifacts/"+strings.TrimPrefix(p, "/out/")] = c
		}
	}
	df.Text = strings.Join(lines, "\n") + "\n"
	return df
}

// extend appends a tail of n body instructions to df's final stage after
// an ENV line carrying id: a build of the result replays df's steps and
// executes only the tail (an edit of an existing Dockerfile).
func (g *gen) extend(df Dockerfile, id string, n int) (Dockerfile, int) {
	out := Dockerfile{
		Context: map[string][]byte{}, Files: map[string]string{},
		Distro: df.Distro, Stages: df.Stages, Cacheable: df.Cacheable,
	}
	for k, v := range df.Context {
		out.Context[k] = v
	}
	for k, v := range df.Files {
		out.Files[k] = v
	}
	b := body{g: g, dir: "/edit", ctx: out.Context, files: out.Files}
	for ; n > 0; n-- {
		b.instruction()
	}
	if b.cacheable == 0 {
		b.run()
	}
	out.Text = df.Text + "ENV EDIT_ID=" + id + "\n" + strings.Join(b.lines, "\n") + "\n"
	out.Cacheable += b.cacheable
	return out, b.cacheable
}

// word draws a payload of letters and digits with a length dealt from
// the deck named key over s.
func (g *gen) word(key string, s span) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
	b := make([]byte, g.size(key, s))
	for i := range b {
		b[i] = alphabet[g.rng.Intn(len(alphabet))]
	}
	return string(b)
}

// body accumulates one stage's generated instructions and the files they
// write.
type body struct {
	g         *gen
	dir       string // every written path sits under dir
	first     bool   // a first stage: no COPY or WORKDIR, so its output stays under dir
	ctx       map[string][]byte
	files     map[string]string
	lines     []string
	cacheable int
	n         int
}

// instruction draws one body instruction: a metadata step, a COPY from
// the build context or a file-writing RUN.
func (b *body) instruction() {
	g := b.g
	b.n++
	switch g.weighted("kind", g.p.Kinds[:]) {
	case 0:
		b.meta()
	case 1:
		if b.first {
			b.run()
			return
		}
		name := fmt.Sprintf("ctx%s%d.dat", strings.ReplaceAll(b.dir, "/", "-"), b.n)
		content := g.word("copy-bytes", g.p.CopyBytes)
		b.ctx[name] = []byte(content)
		dst := fmt.Sprintf("%s/c%d.dat", b.dir, b.n)
		b.lines = append(b.lines, "COPY "+name+" "+dst)
		b.files[dst] = content
		b.cacheable++
	default:
		b.run()
	}
}

// meta emits one ARG, ENV, WORKDIR or CMD line. Values are 1-8
// characters, as the corpus's (1.4, $VERSION, a loadgen variant number).
func (b *body) meta() {
	g := b.g
	v := g.word("meta-value", span{1, 8})
	switch g.weighted("meta", g.p.Metas[:]) {
	case 0:
		b.lines = append(b.lines, fmt.Sprintf("ARG A%d=%s", b.n, v))
	case 2:
		if !b.first {
			b.lines = append(b.lines, fmt.Sprintf("WORKDIR %s/w%d", b.dir, b.n))
			return
		}
		b.lines = append(b.lines, fmt.Sprintf("ENV V%d=%s", b.n, v))
	case 3:
		b.lines = append(b.lines, fmt.Sprintf(`CMD ["%s/%s"]`, b.dir, v))
	default:
		b.lines = append(b.lines, fmt.Sprintf("ENV V%d=%s", b.n, v))
	}
}

// run emits one RUN that creates a directory and writes files into it,
// each echoed or touched and some chmodded, like the corpus's RUN lines.
func (b *body) run() {
	g := b.g
	b.n++
	dir := fmt.Sprintf("%s/r%d", b.dir, b.n)
	cmds := []string{"mkdir -p " + dir}
	for i, n := 0, g.size("fanout", g.p.Fanout); i < n; i++ {
		p := fmt.Sprintf("%s/f%d", dir, i)
		if g.chance("touch", g.p.TouchShare) {
			cmds = append(cmds, "touch "+p)
			b.files[p] = ""
		} else {
			w := g.word("echo-bytes", g.p.EchoBytes)
			cmds = append(cmds, "echo "+w+" > "+p)
			b.files[p] = w + "\n"
		}
		if g.chance("chmod", g.p.ChmodShare) {
			cmds = append(cmds, "chmod 755 "+p)
		}
	}
	b.lines = append(b.lines, "RUN "+strings.Join(cmds, " && "))
	b.cacheable++
}

// Request classes of the daemon workload.
const (
	classWarm = "warm" // replay of a working-set variant
	classEdit = "edit" // a variant with a new tail
	classCold = "cold" // a never-seen Dockerfile
)

// Mix is the daemon workload's request mix: shares of each class and the
// working-set size they draw from.
type Mix struct {
	Variants int `json:"working_set_variants"`
	// Steps is the working set's total of cacheable steps, Installs its
	// package installs and Bases its final-stage bases on alpine, centos
	// and debian.
	Steps     int    `json:"working_set_cacheable_steps"`
	Stages    int    `json:"working_set_stages"`
	Installs  [3]int `json:"working_set_installs_alpine_centos_debian"`
	Bases     [3]int `json:"working_set_bases_alpine_centos_debian"`
	EditShare frac   `json:"edit_share"`
	ColdShare frac   `json:"cold_share"`
	EditTail  span   `json:"instructions_per_edit_tail"`
}

// workingSet draws m's working set: m.Variants shareable files with
// m.Steps cacheable steps, m.Stages stages, m.Installs package installs
// and m.Bases final-stage bases between them, the set redrawn until it
// has. The cost and memory of serving the set are then much the same for
// every seed, where four free draws vary them by a third.
func (g *gen) workingSet(m Mix) []Dockerfile {
	for {
		var set []Dockerfile
		steps, stages, installs, bases := 0, 0, [3]int{}, [3]int{}
		for v := 0; v < m.Variants; v++ {
			df := g.file(fmt.Sprintf("variant%d", v), true)
			set = append(set, df)
			steps += df.Cacheable
			stages += df.Stages
			for d, ds := range distros {
				for _, in := range ds.installs {
					installs[d] += strings.Count(df.Text, "RUN "+in+"\n")
				}
				if ds.name == df.Distro {
					bases[d]++
				}
			}
		}
		if steps == m.Steps && stages == m.Stages && installs == m.Installs && bases == m.Bases {
			return set
		}
	}
}

// request is one scheduled daemon build.
type request struct {
	Class    string
	Tag      string
	DF       Dockerfile
	WantExec int // result.executed a correct build reports
	WantHits int // result.cacheHits a correct build reports
}

// request draws the i-th daemon request over the variants the set-up
// warmed. Requests must be drawn in order: each draw advances the
// generator, so the i-th request depends on the seed and i alone. Edits
// and cold builds of variant v retag edit-v and cold-v, so the daemon's
// tag set stays fixed however long the run.
func (g *gen) request(i int, variants []Dockerfile, m Mix) request {
	var r request
	v := g.index("variant", len(variants))
	class := g.deal("class", func() []int {
		n := lcm(m.ColdShare[1], m.EditShare[1])
		c := make([]int, n) // 0: warm, 1: edit, 2: cold
		cold, edit := m.ColdShare[0]*n/m.ColdShare[1], m.EditShare[0]*n/m.EditShare[1]
		for k := 0; k < cold+edit; k++ {
			c[k] = 1
			if k < cold {
				c[k] = 2
			}
		}
		return c
	})
	switch class {
	case 2:
		r.Class = classCold
		r.Tag = fmt.Sprintf("cold-%d:latest", v)
		r.DF = g.file(fmt.Sprintf("cold%d", i), false)
		r.WantExec = r.DF.Cacheable
	case 1:
		r.Class = classEdit
		r.Tag = fmt.Sprintf("edit-%d:latest", v)
		var tail int
		r.DF, tail = g.extend(variants[v], fmt.Sprintf("edit%d", i), g.size("edit-tail", m.EditTail))
		r.WantExec = tail
		r.WantHits = variants[v].Cacheable
	default:
		r.Class = classWarm
		r.Tag = fmt.Sprintf("variant-%d:latest", v)
		r.DF = variants[v]
		r.WantHits = variants[v].Cacheable
	}
	return r
}

func lcm(a, b int) int {
	x, y := a, b
	for y != 0 {
		x, y = y, x%y
	}
	return a / x * b
}

// sortedPaths lists a Files map's paths in order (stable reports).
func sortedPaths(m map[string]string) []string {
	ps := make([]string, 0, len(m))
	for p := range m {
		ps = append(ps, p)
	}
	sort.Strings(ps)
	return ps
}
