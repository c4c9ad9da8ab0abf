package watdiv

import (
	"fmt"
	"math/rand"

	"sparqlopt/internal/rdf"
)

// DataConfig controls the WatDiv-like data generator. Like the real
// suite's generator, it materializes the e-commerce schema the
// templates walk over, so template queries are executable.
type DataConfig struct {
	// Scale is the number of products; other entity counts derive from
	// it with WatDiv-like proportions.
	Scale int
	// Seed makes generation reproducible.
	Seed int64
}

// GenerateData builds a dataset over the same schema graph the query
// templates are drawn from, so every template matches by construction
// of the vocabulary (result sizes still vary with the walk). The
// dataset is committed in one batch: its first epoch holds every
// triple.
func GenerateData(cfg DataConfig) *rdf.Dataset {
	if cfg.Scale < 10 {
		cfg.Scale = 10
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	ds := rdf.NewDataset()

	// Entity pools, proportioned like the original suite: many users,
	// products and reviews; few retailers, genres and countries.
	counts := map[int]int{
		user:     cfg.Scale * 4 / 10,
		product:  cfg.Scale,
		review:   cfg.Scale * 3 / 2,
		retailer: cfg.Scale/100 + 3,
		offer:    cfg.Scale * 2,
		website:  cfg.Scale/50 + 5,
		genre:    21,
		country:  25,
		purchase: cfg.Scale,
	}
	pools := map[int][]string{}
	names := map[int]string{
		user: "User", product: "Product", review: "Review", retailer: "Retailer",
		offer: "Offer", website: "Website", genre: "Genre", country: "Country",
		purchase: "Purchase",
	}
	for class, n := range counts {
		pool := make([]string, n)
		for i := range pool {
			pool[i] = fmt.Sprintf("http://watdiv/%s%d", names[class], i)
		}
		pools[class] = pool
	}
	pick := func(class int) string {
		pool := pools[class]
		return pool[r.Intn(len(pool))]
	}
	litVal := func(edge string, i int) string { return fmt.Sprintf(`"%s-%d"`, edge, i) }

	// Edge multiplicities: how many edges of each predicate leave one
	// subject on average (×10). Mirrors WatDiv's mix of one-to-one
	// attributes and one-to-many relations.
	multiplicity := map[string]int{
		"follows": 30, "friendOf": 40, "likes": 25, "subscribes": 15,
		"makesPurchase": 20, "purchaseFor": 10, "hasReview": 15, "reviewer": 10,
		"rating": 10, "title": 10, "hasGenre": 12, "price": 10, "offers": 200,
		"offerFor": 10, "homepage": 10, "hits": 10, "language": 10,
		"nationality": 10, "age": 10, "artist": 7, "caption": 8,
		"contentRating": 9, "validThrough": 10, "location": 10,
	}
	litID := 0
	var ts []rdf.Triple
	for _, e := range schemaEdges {
		mult := multiplicity[e.pred]
		subjects := pools[e.from]
		for _, s := range subjects {
			edges := mult / 10
			if r.Intn(10) < mult%10 {
				edges++
			}
			for k := 0; k < edges; k++ {
				var o string
				if e.to == lit {
					litID++
					o = litVal(e.pred, litID%97) // skewed small literal domain
				} else {
					o = pick(e.to)
				}
				ts = append(ts, rdf.Triple{S: ds.Dict.Intern(s), P: ds.Dict.Intern("http://watdiv/" + e.pred), O: ds.Dict.Intern(o)})
			}
		}
	}
	ds.AddBatch(ts)
	return ds
}
