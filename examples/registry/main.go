// Registry: serve MANY models from ONE process. Three of the seed
// workloads — voice (ISOLET), activity (PAMAP2), vitals (DIABETES) —
// become tenants of a serve/registry.Registry with heterogeneous
// dimensionality, squeezed through a replica pool smaller than the
// tenant count so LRU parking is visible, then driven over the
// /t/{model}/... HTTP surface: per-tenant predictions, the
// default-tenant alias, a fourth tenant installed live over
// PUT /t/{model}, per-tenant and aggregate stats, a learning tenant
// whose feedback window and serving counters survive being parked, and a
// drain.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"

	disthd "repro"
	"repro/serve"
	"repro/serve/registry"
)

// tenant is one workload to install: a model ID, the synthetic
// benchmark standing in for its data, its hypervector width, and
// whether it keeps learning from labeled feedback in production.
type tenant struct {
	id      string
	dataset string
	dim     int
	learn   bool
}

func main() {
	// 1. Train the three workloads at deliberately different shapes —
	//    different feature widths, class counts, AND dimensionality. One
	//    registry serves them all from one process; per-tenant replica
	//    scratch keeps the zero-alloc batched path intact for each shape.
	tenants := []tenant{
		{"voice", "ISOLET", 1024, false},
		{"activity", "PAMAP2", 512, false},
		{"vitals", "DIABETES", 256, true}, // vitals keeps learning in production
	}
	reg, err := registry.New(2) // pool of 2 replica slots < 3 tenants: someone always parks
	if err != nil {
		log.Fatal(err)
	}
	tests := map[string]disthd.DataSplit{}
	for _, t := range tenants {
		train, test, err := disthd.SyntheticBenchmark(t.dataset, 0.10, 42)
		if err != nil {
			log.Fatal(err)
		}
		cfg := disthd.DefaultConfig()
		cfg.Dim = t.dim
		cfg.Iterations = 5
		fmt.Printf("training tenant %q on %s (D=%d)...\n", t.id, t.dataset, t.dim)
		m, err := disthd.TrainWithConfig(train.X, train.Y, train.Classes, cfg)
		if err != nil {
			log.Fatal(err)
		}
		spec := registry.Spec{
			Options: serve.Options{MaxBatch: 64, Replicas: 1},
		}
		if t.learn {
			spec.Learner = &serve.LearnerOptions{Seed: 1}
		}
		if err := reg.Install(t.id, m, spec); err != nil {
			log.Fatal(err)
		}
		tests[t.id] = test
	}

	// 2. One HTTP surface for all of them. Every single-model endpoint
	//    lives at /t/{model}/...; the first-installed tenant ("voice")
	//    also answers the plain routes, byte-identical to a single-model
	//    disthd-serve — existing clients keep working unchanged.
	srv := registry.NewServer(reg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	base := "http://" + ln.Addr().String()
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	fmt.Println("serving", len(tenants), "tenants on", base)

	// 3. Per-tenant traffic. Touching a parked tenant wakes it: the
	//    least-recently-used idle tenant is parked (its replica scratch
	//    handed back, its serving unit kept) to free a replica slot.
	for _, t := range tenants {
		test := tests[t.id]
		classes, err := postBatch(base+"/t/"+t.id, test.X[:4])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("/t/%s/predict_batch -> %v (want %v)\n", t.id, classes, test.Y[:4])
	}

	// 4. The default-tenant alias: the plain route answers exactly what
	//    /t/voice answers.
	aliased, err := postBatch(base, tests["voice"].X[:2])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("default alias /predict_batch -> %v (voice)\n", aliased)

	// 5. Grow the fleet live: PUT /t/{model} with a JSON install spec
	//    trains and installs a fourth tenant server-side (the other
	//    install form PUTs raw Model.Save bytes). DELETE drains and
	//    removes. This is the admin plane `disthd-serve -registry` exposes.
	spec := `{"demo": "UCIHAR", "dim": 384, "scale": 0.1, "iterations": 3}`
	req, err := http.NewRequest(http.MethodPut, base+"/t/gestures", strings.NewReader(spec))
	if err != nil {
		log.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Println("PUT /t/gestures:", resp.Status)

	var models struct {
		Default string                 `json:"default"`
		Tenants []registry.TenantStats `json:"tenants"`
	}
	if err := getJSON(base+"/models", &models); err != nil {
		log.Fatal(err)
	}
	ids := make([]string, len(models.Tenants))
	for i, t := range models.Tenants {
		ids[i] = t.ID
	}
	fmt.Printf("GET /models: %v (default %q)\n", ids, models.Default)

	// 6. Stats come in two scopes: /t/{model}/stats for one tenant
	//    (answers even while parked, without waking it) and the aggregate
	//    /stats with the registry gauges — pool occupancy, LRU evictions,
	//    admission-control rejections.
	var ts registry.TenantStats
	if err := getJSON(base+"/t/activity/stats", &ts); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tenant activity: resident=%v wakes=%d evictions=%d (D=%d, %d classes)\n",
		ts.Resident, ts.Wakes, ts.Evictions, ts.Dim, ts.Classes)
	var agg registry.Stats
	if err := getJSON(base+"/stats", &agg); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("registry: %d/%d replica slots used by %d/%d resident tenants; %d evictions, %d wakes\n",
		agg.UsedReplicas, agg.Capacity, agg.ResidentCount, agg.TenantCount, agg.Evictions, agg.Wakes)

	// 7. Parking is lossless. "vitals" was installed with a learner: feed
	//    it labeled samples over /learn, then force it out of the pool by
	//    touching the other tenants. A park frees only replica scratch, so
	//    while parked its /stats still reports the serving unit — learner
	//    gauges and request counters — and the next feedback sample wakes
	//    it with the same unit: window, drift baseline, and counters where
	//    they stopped; eviction churn never resets a tenant to a cold
	//    learner.
	vt := tests["vitals"]
	for i := 0; i < 8; i++ {
		if err := postLearn(base+"/t/vitals", vt.X[i], vt.Y[i]); err != nil {
			log.Fatal(err)
		}
	}
	for _, id := range []string{"voice", "activity"} { // 2 wakes through pool 2 park vitals
		if _, err := postBatch(base+"/t/"+id, tests[id].X[:1]); err != nil {
			log.Fatal(err)
		}
	}
	if err := getJSON(base+"/t/vitals/stats", &ts); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("vitals parked: resident=%v, learner gauges feedback=%d\n",
		ts.Resident, ts.Serve.Learner.Feedback)
	if err := postLearn(base+"/t/vitals", vt.X[8], vt.Y[8]); err != nil { // wakes vitals
		log.Fatal(err)
	}
	if err := getJSON(base+"/t/vitals/stats", &ts); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("vitals woken: resident=%v, learner feedback=%d (continued, not reset)\n",
		ts.Resident, ts.Serve.Learner.Feedback)

	// 8. Drain: every tenant's accepted micro-batches are answered before
	//    the registry reports closed; learners are settled on the way out,
	//    so no background retrain outlives the process.
	hs.Close()
	srv.Close()
	fmt.Println("drained cleanly")
}

// postBatch sends rows to {base}/predict_batch as JSON and returns the
// predicted classes.
func postBatch(base string, rows [][]float64) ([]int, error) {
	body, err := json.Marshal(map[string][][]float64{"x": rows})
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(base+"/predict_batch", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("predict_batch: %s", resp.Status)
	}
	var out struct {
		Classes []int `json:"classes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out.Classes, nil
}

// postLearn sends one labeled feedback sample to {base}/learn.
func postLearn(base string, x []float64, label int) error {
	body, err := json.Marshal(map[string]any{"x": x, "label": label})
	if err != nil {
		return err
	}
	resp, err := http.Post(base+"/learn", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("learn: %s", resp.Status)
	}
	return nil
}

// getJSON decodes a GET response body into out.
func getJSON(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
