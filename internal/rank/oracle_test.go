package rank

import (
	"fmt"
	"math"

	"scholarrank/internal/graph"
	"scholarrank/internal/hetnet"
	"scholarrank/internal/sparse"
	"scholarrank/internal/temporal"
)

// The baseline implementations as they stood before the baselines
// became scorers in internal/core, kept verbatim as test oracles: the
// tests in this package pin their behaviour, and
// scorer_oracle_test.go checks every core baseline scorer against
// them.

// Result is the outcome of an oracle ranking computation.
type Result struct {
	// Scores[i] is the importance of article i; higher is better.
	Scores []float64
	// Stats reports iteration behaviour for iterative algorithms and
	// is zero for closed-form scores such as citation counts.
	Stats sparse.IterStats
}

// PageRankOptions configures the PageRank family of computations.
type PageRankOptions struct {
	// Damping is the probability of following a citation rather than
	// teleporting; zero selects DefaultDamping. Must lie in (0, 1).
	Damping float64
	// Personalization is the teleport distribution over articles.
	// Nil selects uniform. It is normalised internally; entries must
	// be non-negative and not all zero.
	Personalization []float64
	// Workers sets mat-vec parallelism; values < 1 select NumCPU.
	Workers int
	// Iter controls convergence (tolerance, max iterations, tracing).
	Iter sparse.IterOptions
}

func (o PageRankOptions) damping() float64 {
	if o.Damping == 0 {
		return DefaultDamping
	}
	return o.Damping
}

func (o PageRankOptions) validate(n int) error {
	d := o.damping()
	if d <= 0 || d >= 1 {
		return fmt.Errorf("%w: damping %v not in (0,1)", ErrBadParam, o.Damping)
	}
	if o.Personalization != nil {
		if len(o.Personalization) != n {
			return fmt.Errorf("%w: personalization length %d, want %d", ErrBadParam, len(o.Personalization), n)
		}
		var s float64
		for _, v := range o.Personalization {
			if v < 0 {
				return fmt.Errorf("%w: negative personalization entry", ErrBadParam)
			}
			s += v
		}
		if s <= 0 {
			return fmt.Errorf("%w: personalization sums to zero", ErrBadParam)
		}
	}
	return nil
}

// teleport returns the normalised teleport vector.
func (o PageRankOptions) teleport(n int) []float64 {
	v := make([]float64, n)
	if o.Personalization == nil {
		sparse.Uniform(v)
		return v
	}
	copy(v, o.Personalization)
	sparse.Normalize1(v)
	return v
}

// PageRank computes the stationary distribution of the damped random
// walk on g:
//
//	x' = d·(Mᵀx + danglingMass(x)·v) + (1-d)·v
//
// where v is the (possibly personalised) teleport vector. Dangling
// mass is redistributed through v, so the result is a probability
// distribution (sums to 1).
func PageRank(g *graph.Graph, opts PageRankOptions) (Result, error) {
	return pageRank(g, opts, false)
}

// PageRankGaussSeidel computes the same stationary distribution as
// PageRank with the solver's renormalised Gauss–Seidel sweeps
// (sparse.Transition.GaussSeidel) in place of Jacobi-style power iteration.
// On a chronologically indexed citation graph, whose operator is
// (nearly) triangular, it converges in a handful of sweeps — two when
// every citation points to a lower id. Results agree with PageRank up
// to the tolerance.
func PageRankGaussSeidel(g *graph.Graph, opts PageRankOptions) (Result, error) {
	return pageRank(g, opts, true)
}

func pageRank(g *graph.Graph, opts PageRankOptions, gaussSeidel bool) (Result, error) {
	n := g.NumNodes()
	if err := opts.validate(n); err != nil {
		return Result{}, err
	}
	if n == 0 {
		return Result{Scores: nil, Stats: sparse.IterStats{Converged: true}}, nil
	}
	pool := sparse.NewPool(opts.Workers)
	t := sparse.NewTransition(g, pool)
	if gaussSeidel {
		t = t.GaussSeidel()
	}
	scores, stats, err := sparse.DampedWalk(t, opts.damping(), opts.teleport(n), opts.Iter)
	if err != nil {
		return Result{}, err
	}
	return Result{Scores: scores, Stats: stats}, nil
}

// WeightedPageRank runs PageRank on a weighted citation graph, where
// each citation edge carries an arbitrary positive weight (such as a
// time-decay factor) and a citing article distributes its mass
// proportionally to edge weight. For unweighted graphs it is
// identical to PageRank.
func WeightedPageRank(g *graph.Graph, opts PageRankOptions) (Result, error) {
	// The Transition operator already honours edge weights; this
	// wrapper exists for call-site clarity in the algorithms that
	// construct decay-weighted graphs.
	return PageRank(g, opts)
}

// CiteCount scores every article by its raw citation count (in-degree
// of the citation graph). It is the simplest and most widely deployed
// query-independent signal, and the weakest baseline for future
// impact because it ignores who cites and when.
func CiteCount(g *graph.Graph) Result {
	in := g.InDegrees()
	scores := make([]float64, len(in))
	for i, d := range in {
		scores[i] = float64(d)
	}
	return Result{Scores: scores}
}

// YearNormCiteCount divides each article's citation count by the mean
// citation count of articles published in the same year (with
// add-one smoothing), removing the mechanical advantage of older
// articles. years[i] is the publication year of article i.
func YearNormCiteCount(g *graph.Graph, years []float64) Result {
	in := g.InDegrees()
	sum := make(map[int]float64)
	cnt := make(map[int]int)
	for i, d := range in {
		y := int(years[i])
		sum[y] += float64(d)
		cnt[y]++
	}
	scores := make([]float64, len(in))
	for i, d := range in {
		y := int(years[i])
		mean := (sum[y] + 1) / float64(cnt[y]) // add-one smoothing
		scores[i] = float64(d) / mean
	}
	return Result{Scores: scores}
}

// AgeNormCiteCount divides the citation count by the article's age in
// years (minimum 1): citations per year, another common recency
// correction.
func AgeNormCiteCount(g *graph.Graph, years []float64, now float64) Result {
	in := g.InDegrees()
	scores := make([]float64, len(in))
	for i, d := range in {
		age := now - years[i]
		if age < 1 {
			age = 1
		}
		scores[i] = float64(d) / age
	}
	return Result{Scores: scores}
}

// CiteRankOptions configures CiteRank.
type CiteRankOptions struct {
	// Rho is the exponential decay rate per year of the researcher's
	// preference for starting at recent articles. Typical values are
	// 0.1–0.5 (the original paper's tau ≈ 2.6 years corresponds to
	// rho ≈ 0.38).
	Rho float64
	// PageRank carries damping, workers and iteration controls. Any
	// Personalization set here is ignored — CiteRank defines it.
	PageRank PageRankOptions
}

// CiteRank models a researcher who starts reading at a recently
// published article (probability decaying exponentially with age) and
// then follows references. It is personalised PageRank with the
// teleport vector
//
//	v_i ∝ exp(-rho · age_i)
//
// so that old prestige alone cannot dominate: traffic must flow from
// the current research frontier.
func CiteRank(g *graph.Graph, years []float64, now float64, opts CiteRankOptions) (Result, error) {
	n := g.NumNodes()
	if len(years) != n {
		return Result{}, fmt.Errorf("%w: years length %d, want %d", ErrBadParam, len(years), n)
	}
	kernel, err := temporal.NewExponential(opts.Rho)
	if err != nil {
		return Result{}, fmt.Errorf("rank: citerank: %w", err)
	}
	pr := opts.PageRank
	pr.Personalization = RecencyVector(years, now, kernel)
	return PageRank(g, pr)
}

// SceasRankOptions configures SceasRank (SCEAS: Scientific Collection
// Evaluator with Advanced Scoring, Sidiropoulos & Manolopoulos). The
// method differs from PageRank in two ways that matter for citation
// graphs: a direct-citation bonus b makes each citation worth
// something even from zero-score citers, and the decay factor d < 1
// geometrically discounts long citation chains, which both speeds
// convergence and reduces the dominance of old, deep chains.
type SceasRankOptions struct {
	// Decay is the per-hop chain discount d in (0, 1); zero selects
	// the published default 1/e.
	Decay float64
	// Bonus is the direct-citation enhancement b >= 0; zero-valued
	// options select the published default 1.
	Bonus float64
	// BonusSet marks Bonus as explicitly provided (allows Bonus = 0).
	BonusSet bool
	// Iter controls convergence.
	Iter sparse.IterOptions
}

func (o SceasRankOptions) withDefaults() (SceasRankOptions, error) {
	if o.Decay == 0 {
		o.Decay = 1 / math.E
	}
	if o.Bonus == 0 && !o.BonusSet {
		o.Bonus = 1
	}
	if o.Decay <= 0 || o.Decay >= 1 {
		return o, fmt.Errorf("%w: sceas decay %v not in (0,1)", ErrBadParam, o.Decay)
	}
	if o.Bonus < 0 {
		return o, fmt.Errorf("%w: sceas bonus %v", ErrBadParam, o.Bonus)
	}
	return o, nil
}

// SceasRank iterates
//
//	S(p) = Σ_{q→p} (S(q) + b) · d / outdeg(q)
//
// to its fixed point. The map is a contraction for d < 1, so it
// converges from any start; scores are left unnormalised (their
// scale carries the "citations weighted by chain depth" meaning),
// matching the original formulation.
func SceasRank(g *graph.Graph, opts SceasRankOptions) (Result, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return Result{}, err
	}
	n := g.NumNodes()
	if n == 0 {
		return Result{Stats: sparse.IterStats{Converged: true}}, nil
	}
	t := sparse.NewTransition(g, nil)
	// bonusIn[p] = Σ_{q→p} b/outdeg(q) is constant across iterations.
	bonusIn := make([]float64, n)
	ones := make([]float64, n)
	sparse.Fill(ones, 1)
	t.MulVec(bonusIn, ones)
	sparse.Scale(bonusIn, opts.Bonus*opts.Decay)

	step := func(dst, src []float64) {
		t.MulVec(dst, src)
		for i := range dst {
			dst[i] = dst[i]*opts.Decay + bonusIn[i]
		}
	}
	init := make([]float64, n)
	scores, stats, err := sparse.FixedPoint(init, step, opts.Iter)
	if err != nil {
		return Result{}, err
	}
	return Result{Scores: scores, Stats: stats}, nil
}

// TimedPageRank implements the post-hoc temporal weighting of the
// "Adding the Temporal Dimension to Search" line of work: compute
// ordinary PageRank, then multiply each article's score by a decay
// of its age, so old prestige fades unless refreshed.
func TimedPageRank(g *graph.Graph, years []float64, now float64, rho float64, opts PageRankOptions) (Result, error) {
	kernel, err := temporal.NewExponential(rho)
	if err != nil {
		return Result{}, fmt.Errorf("rank: timed pagerank: %w", err)
	}
	res, err := PageRank(g, opts)
	if err != nil {
		return Result{}, err
	}
	for i := range res.Scores {
		res.Scores[i] *= kernel.Weight(temporal.Age(now, years[i]))
	}
	return res, nil
}

// HITSResult carries both HITS eigenvectors. For article ranking the
// authority vector is the importance score (being cited by good
// surveys raises authority); the hub vector identifies survey-like
// articles with strong reference lists.
type HITSResult struct {
	Authorities []float64
	Hubs        []float64
	Stats       sparse.IterStats
}

// HITS runs the Kleinberg mutual-reinforcement iteration on the
// citation graph:
//
//	auth = normalise(Aᵀ·hub)   hub = normalise(A·auth)
//
// with L1 normalisation each round, until the authority vector
// stabilises. Unlike the PageRank family it has no teleport, so on
// disconnected graphs mass concentrates in the dominant component —
// exactly the weakness the experiments expose.
func HITS(g *graph.Graph, opts sparse.IterOptions) (HITSResult, error) {
	n := g.NumNodes()
	if n == 0 {
		return HITSResult{Stats: sparse.IterStats{Converged: true}}, nil
	}
	tr := g.Transpose()
	hub := make([]float64, n)
	sparse.Uniform(hub)

	// One fixed-point step over the authority vector: recover hubs
	// from the current authorities, then advance authorities.
	step := func(dst, src []float64) {
		// hub = normalise(A · src)
		for u := 0; u < n; u++ {
			var s float64
			for _, v := range g.Neighbors(graph.NodeID(u)) {
				s += src[v]
			}
			hub[u] = s
		}
		sparse.Normalize1(hub)
		// dst = normalise(Aᵀ · hub)
		for v := 0; v < n; v++ {
			var s float64
			for _, u := range tr.Neighbors(graph.NodeID(v)) {
				s += hub[u]
			}
			dst[v] = s
		}
		sparse.Normalize1(dst)
	}

	init := make([]float64, n)
	sparse.Uniform(init)
	auth, stats, err := sparse.FixedPoint(init, step, opts)
	if err != nil {
		return HITSResult{}, err
	}
	// Recompute hubs consistent with the final authorities.
	finalHub := make([]float64, n)
	for u := 0; u < n; u++ {
		var s float64
		for _, v := range g.Neighbors(graph.NodeID(u)) {
			s += auth[v]
		}
		finalHub[u] = s
	}
	sparse.Normalize1(finalHub)
	return HITSResult{Authorities: auth, Hubs: finalHub, Stats: stats}, nil
}

// HITSAuthority is a convenience wrapper returning the authority
// scores as a Result for uniform treatment in the experiment harness.
func HITSAuthority(g *graph.Graph, opts sparse.IterOptions) (Result, error) {
	r, err := HITS(g, opts)
	if err != nil {
		return Result{}, err
	}
	return Result{Scores: r.Authorities, Stats: r.Stats}, nil
}

// FutureRankOptions configures FutureRank. The mixing weights must be
// non-negative with Alpha+Beta+Gamma <= 1; the remainder is uniform
// random-jump mass.
type FutureRankOptions struct {
	// Alpha weights the citation random walk.
	Alpha float64
	// Beta weights the authorship mutual reinforcement.
	Beta float64
	// Gamma weights the recency personalisation vector.
	Gamma float64
	// Rho is the exponential decay rate of the recency vector.
	Rho float64
	// Workers sets mat-vec parallelism.
	Workers int
	// Iter controls convergence.
	Iter sparse.IterOptions
}

func (o FutureRankOptions) validate() error {
	if o.Alpha < 0 || o.Beta < 0 || o.Gamma < 0 {
		return fmt.Errorf("%w: negative futurerank weight", ErrBadParam)
	}
	if s := o.Alpha + o.Beta + o.Gamma; s > 1+1e-12 {
		return fmt.Errorf("%w: alpha+beta+gamma = %v > 1", ErrBadParam, s)
	}
	return nil
}

// DefaultFutureRankOptions mirrors the weighting reported as best in
// the FutureRank paper (Sayyadi & Getoor, SDM 2009): citation walk
// dominant, author reinforcement and recency personalisation as
// corrective signals.
func DefaultFutureRankOptions() FutureRankOptions {
	return FutureRankOptions{Alpha: 0.5, Beta: 0.2, Gamma: 0.2, Rho: 0.3}
}

// FutureRank ranks articles for *future* citation impact by coupling
// three signals into one fixed point over the article score vector x:
//
//	x' = α·(Mᵀx + dangling·r) + β·S_A(G_A(x)) + γ·r + (1-α-β-γ)·u
//
// where M is the citation transition, G_A gathers article mass onto
// authors (articles split equally among coauthors), S_A spreads author
// mass back over their articles, r is the normalised recency vector
// and u is uniform. Mass leaked by author-less articles is routed
// through r, keeping x a probability distribution.
func FutureRank(net *hetnet.Network, opts FutureRankOptions) (Result, error) {
	if err := opts.validate(); err != nil {
		return Result{}, err
	}
	n := net.NumArticles()
	if n == 0 {
		return Result{Stats: sparse.IterStats{Converged: true}}, nil
	}
	kernel, err := temporal.NewExponential(opts.Rho)
	if err != nil {
		return Result{}, fmt.Errorf("rank: futurerank: %w", err)
	}
	r := RecencyVector(net.Years, net.Now, kernel)
	sparse.Normalize1(r)

	pool := sparse.NewPool(opts.Workers)
	t := sparse.NewTransition(net.Citations, pool)
	authors := make([]float64, net.NumAuthors())
	fromAuthors := make([]float64, n)
	uniform := 1 / float64(n)
	rest := 1 - opts.Alpha - opts.Beta - opts.Gamma

	step := func(dst, src []float64) {
		t.MulVec(dst, src)
		dm := t.DanglingMass(src)
		leak := net.GatherArticlesToAuthors(authors, src)
		net.SpreadAuthorsToArticles(fromAuthors, authors)
		for i := range dst {
			cite := dst[i] + dm*r[i]
			auth := fromAuthors[i] + leak*r[i]
			dst[i] = opts.Alpha*cite + opts.Beta*auth + opts.Gamma*r[i] + rest*uniform
		}
		// Guard against drift from float error over many iterations.
		sparse.Normalize1(dst)
	}
	init := make([]float64, n)
	sparse.Uniform(init)
	scores, stats, err := sparse.FixedPoint(init, step, opts.Iter)
	if err != nil {
		return Result{}, err
	}
	return Result{Scores: scores, Stats: stats}, nil
}

// PRankOptions configures P-Rank. The layer weights must be
// non-negative and sum to 1 (a zero-value struct selects the
// defaults).
type PRankOptions struct {
	// PaperWeight, AuthorWeight, VenueWeight mix the three layer
	// signals inside the damped walk.
	PaperWeight  float64
	AuthorWeight float64
	VenueWeight  float64
	// Damping is the walk-vs-teleport mix; zero selects
	// DefaultDamping.
	Damping float64
	// Workers sets mat-vec parallelism.
	Workers int
	// Iter controls convergence.
	Iter sparse.IterOptions
}

// DefaultPRankOptions weights the citation layer at 0.6 and the
// author and venue layers at 0.2 each, following the "all three
// networks matter, citations most" finding of the P-Rank line of
// work.
func DefaultPRankOptions() PRankOptions {
	return PRankOptions{PaperWeight: 0.6, AuthorWeight: 0.2, VenueWeight: 0.2}
}

func (o PRankOptions) withDefaults() PRankOptions {
	if o.PaperWeight == 0 && o.AuthorWeight == 0 && o.VenueWeight == 0 {
		d := DefaultPRankOptions()
		o.PaperWeight, o.AuthorWeight, o.VenueWeight = d.PaperWeight, d.AuthorWeight, d.VenueWeight
	}
	if o.Damping == 0 {
		o.Damping = DefaultDamping
	}
	return o
}

func (o PRankOptions) validate() error {
	if o.PaperWeight < 0 || o.AuthorWeight < 0 || o.VenueWeight < 0 {
		return fmt.Errorf("%w: negative p-rank layer weight", ErrBadParam)
	}
	s := o.PaperWeight + o.AuthorWeight + o.VenueWeight
	if s < 1-1e-9 || s > 1+1e-9 {
		return fmt.Errorf("%w: p-rank layer weights sum to %v, want 1", ErrBadParam, s)
	}
	if o.Damping <= 0 || o.Damping >= 1 {
		return fmt.Errorf("%w: damping %v", ErrBadParam, o.Damping)
	}
	return nil
}

// PRank ranks articles on the heterogeneous article–author–venue
// network. Each iteration, article mass flows simultaneously through
// the citation walk and through author and venue intermediaries
// (gather to the entity, spread back over its articles), then mixes
// with a uniform teleport:
//
//	x' = d·(φ_p·cite(x) + φ_a·S_A(G_A(x)) + φ_v·S_V(G_V(x))) + (1-d)·u
//
// Mass leaked by articles lacking authors or venues is routed through
// the uniform vector, so x remains a probability distribution.
func PRank(net *hetnet.Network, opts PRankOptions) (Result, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return Result{}, err
	}
	n := net.NumArticles()
	if n == 0 {
		return Result{Stats: sparse.IterStats{Converged: true}}, nil
	}
	pool := sparse.NewPool(opts.Workers)
	t := sparse.NewTransition(net.Citations, pool)
	authors := make([]float64, net.NumAuthors())
	venues := make([]float64, net.NumVenues())
	fromAuthors := make([]float64, n)
	fromVenues := make([]float64, n)
	uniform := 1 / float64(n)
	d := opts.Damping

	step := func(dst, src []float64) {
		t.MulVec(dst, src)
		dm := t.DanglingMass(src)
		aLeak := net.GatherArticlesToAuthors(authors, src)
		net.SpreadAuthorsToArticles(fromAuthors, authors)
		vLeak := net.GatherArticlesToVenues(venues, src)
		net.SpreadVenuesToArticles(fromVenues, venues)
		for i := range dst {
			cite := dst[i] + dm*uniform
			auth := fromAuthors[i] + aLeak*uniform
			ven := fromVenues[i] + vLeak*uniform
			mix := opts.PaperWeight*cite + opts.AuthorWeight*auth + opts.VenueWeight*ven
			dst[i] = d*mix + (1-d)*uniform
		}
		sparse.Normalize1(dst)
	}
	init := make([]float64, n)
	sparse.Uniform(init)
	scores, stats, err := sparse.FixedPoint(init, step, opts.Iter)
	if err != nil {
		return Result{}, err
	}
	return Result{Scores: scores, Stats: stats}, nil
}

// CoRankOptions configures the coupled article–author ranking of the
// Co-Ranking framework (Zhou et al., ICDM 2007): two intra-class
// random walks — over the citation graph and over the co-authorship
// graph — coupled through the authorship bipartite relation, so good
// articles lift their authors and reputable authors lift their
// articles, simultaneously.
type CoRankOptions struct {
	// Coupling is the probability of jumping to the other entity
	// class instead of continuing the intra-class walk. Zero selects
	// the published default 0.2; it must lie in (0, 1).
	Coupling float64
	// Damping is the intra-class walk damping; zero selects
	// DefaultDamping.
	Damping float64
	// Workers sets mat-vec parallelism.
	Workers int
	// Iter controls convergence of the joint iteration.
	Iter sparse.IterOptions
}

func (o CoRankOptions) withDefaults() (CoRankOptions, error) {
	if o.Coupling == 0 {
		o.Coupling = 0.2
	}
	if o.Damping == 0 {
		o.Damping = DefaultDamping
	}
	if o.Coupling <= 0 || o.Coupling >= 1 {
		return o, fmt.Errorf("%w: corank coupling %v not in (0,1)", ErrBadParam, o.Coupling)
	}
	if o.Damping <= 0 || o.Damping >= 1 {
		return o, fmt.Errorf("%w: corank damping %v", ErrBadParam, o.Damping)
	}
	return o, nil
}

// CoRankResult carries both stationary distributions.
type CoRankResult struct {
	// Articles and Authors are probability distributions over the
	// respective entity classes.
	Articles []float64
	Authors  []float64
	// Stats reports the joint iteration (residual = article L1 change
	// + author L1 change).
	Stats sparse.IterStats
}

// CoRank computes the coupled stationary distributions:
//
//	p' = (1-κ)·walk_D(p) + κ·S_A(a)    (articles)
//	a' = (1-κ)·walk_C(a) + κ·G_A(p)    (authors)
//
// where walk_D is the damped citation walk, walk_C the damped
// co-authorship walk, S_A spreads author mass over their articles and
// G_A gathers article mass onto authors. Mass leaked by author-less
// articles (and article-less authors) is redistributed uniformly
// within the receiving class, so both vectors remain probability
// distributions.
func CoRank(net *hetnet.Network, opts CoRankOptions) (CoRankResult, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return CoRankResult{}, err
	}
	nP := net.NumArticles()
	nA := net.NumAuthors()
	if nP == 0 {
		return CoRankResult{Stats: sparse.IterStats{Converged: true}}, nil
	}
	if nA == 0 {
		// Degenerate: no author class; CoRank reduces to PageRank.
		res, err := PageRank(net.Citations, PageRankOptions{
			Damping: opts.Damping, Workers: opts.Workers, Iter: opts.Iter,
		})
		if err != nil {
			return CoRankResult{}, err
		}
		res.Stats.Converged = true
		return CoRankResult{Articles: res.Scores, Stats: res.Stats}, nil
	}

	pool := sparse.NewPool(opts.Workers)
	citeT := sparse.NewTransition(net.Citations, pool)
	coauthT := sparse.NewTransition(net.CoauthorGraph(), pool)

	d, k := opts.Damping, opts.Coupling
	uniP := 1 / float64(nP)
	uniA := 1 / float64(nA)

	p := make([]float64, nP)
	a := make([]float64, nA)
	sparse.Uniform(p)
	sparse.Uniform(a)
	nextP := make([]float64, nP)
	nextA := make([]float64, nA)
	fromAuthors := make([]float64, nP)
	gathered := make([]float64, nA)

	iterOpts := opts.Iter
	if iterOpts.Tol == 0 {
		iterOpts.Tol = sparse.DefaultTol
	}
	if iterOpts.MaxIter == 0 {
		iterOpts.MaxIter = sparse.DefaultMaxIter
	}
	if iterOpts.Tol < 0 || iterOpts.MaxIter < 0 {
		return CoRankResult{}, fmt.Errorf("%w: corank iteration options", ErrBadParam)
	}

	var st sparse.IterStats
	for st.Iterations = 1; st.Iterations <= iterOpts.MaxIter; st.Iterations++ {
		// Article side.
		citeT.MulVec(nextP, p)
		dmP := citeT.DanglingMass(p)
		net.SpreadAuthorsToArticles(fromAuthors, a)
		var spreadTotal float64
		for _, v := range fromAuthors {
			spreadTotal += v
		}
		spreadLeak := 1 - spreadTotal // authors without articles
		for i := range nextP {
			walk := d*(nextP[i]+dmP*uniP) + (1-d)*uniP
			nextP[i] = (1-k)*walk + k*(fromAuthors[i]+spreadLeak*uniP)
		}
		// Author side (uses the previous article vector, Jacobi
		// style, so the update is symmetric in both classes).
		coauthT.MulVec(nextA, a)
		dmA := coauthT.DanglingMass(a)
		gatherLeak := net.GatherArticlesToAuthors(gathered, p)
		for i := range nextA {
			walk := d*(nextA[i]+dmA*uniA) + (1-d)*uniA
			nextA[i] = (1-k)*walk + k*(gathered[i]+gatherLeak*uniA)
		}
		sparse.Normalize1(nextP)
		sparse.Normalize1(nextA)
		st.Residual = sparse.L1Diff(nextP, p) + sparse.L1Diff(nextA, a)
		if iterOpts.Trace {
			st.ResidualTrace = append(st.ResidualTrace, st.Residual)
		}
		p, nextP = nextP, p
		a, nextA = nextA, a
		if st.Residual < iterOpts.Tol {
			st.Converged = true
			break
		}
	}
	if st.Iterations > iterOpts.MaxIter {
		st.Iterations = iterOpts.MaxIter
	}
	return CoRankResult{Articles: p, Authors: a, Stats: st}, nil
}
