"""Curated seed ontology of computer-science topics.

This is the reproduction's stand-in for the Computer Science Ontology
(CSO) the paper uses for semantic keyword expansion.  It is hand-curated
rather than generated: expansion quality claims (the "RDF" example of
§2.1, the demo manuscripts) need real topical structure, not random
graphs.  Coverage concentrates on the data-management neighbourhood the
EDBT demo exercises and fans out to the rest of computer science at
coarser granularity — roughly 300 topics and 500 typed links.

The declarative format below keeps the dataset reviewable:

``(topic_id, label, alt_labels, broader_parents, related_topics)``

Edges are declared on the narrower/downstream side only; the graph
materializes inverses automatically.
"""

from __future__ import annotations

from repro.obs import get_obs
from repro.ontology.graph import Relation, TopicOntology

# (id, label, alt labels, broader parents, related topics)
_T = tuple[str, str, tuple[str, ...], tuple[str, ...], tuple[str, ...]]

_TOPICS: tuple[_T, ...] = (
    # ------------------------------------------------------------------
    # Root and top-level areas
    # ------------------------------------------------------------------
    ("computer-science", "Computer Science", (), (), ()),
    ("artificial-intelligence", "Artificial Intelligence", ("ai",), ("computer-science",), ()),
    ("data-management", "Data Management", (), ("computer-science",), ()),
    ("distributed-systems", "Distributed Systems", (), ("computer-science",), ()),
    ("software-engineering", "Software Engineering", (), ("computer-science",), ()),
    ("computer-networks", "Computer Networks", ("networking",), ("computer-science",), ()),
    ("computer-security", "Computer Security", ("cybersecurity", "security"), ("computer-science",), ()),
    ("theory-of-computation", "Theory of Computation", (), ("computer-science",), ()),
    ("human-computer-interaction", "Human-Computer Interaction", ("hci",), ("computer-science",), ()),
    ("computer-graphics", "Computer Graphics", (), ("computer-science",), ()),
    ("operating-systems", "Operating Systems", (), ("computer-science",), ()),
    ("computer-architecture", "Computer Architecture", (), ("computer-science",), ()),
    ("bioinformatics", "Bioinformatics", ("computational biology",), ("computer-science",), ()),
    ("programming-languages", "Programming Languages", (), ("computer-science",), ()),
    ("information-retrieval", "Information Retrieval", ("ir",), ("computer-science",), ("data-management",)),
    ("scientometrics", "Scientometrics", ("bibliometrics",), ("computer-science",), ("information-retrieval",)),
    # ------------------------------------------------------------------
    # Databases / data management (the demo's home turf)
    # ------------------------------------------------------------------
    ("databases", "Databases", ("database systems",), ("data-management",), ()),
    ("relational-databases", "Relational Databases", ("rdbms",), ("databases",), ()),
    ("sql", "SQL", ("structured query language",), ("relational-databases",), ()),
    ("query-processing", "Query Processing", (), ("databases",), ()),
    ("query-optimization", "Query Optimization", (), ("query-processing",), ()),
    ("query-languages", "Query Languages", (), ("databases",), ("query-processing",)),
    ("transaction-processing", "Transaction Processing", ("oltp",), ("databases",), ()),
    ("concurrency-control", "Concurrency Control", (), ("transaction-processing",), ()),
    ("indexing", "Indexing", ("index structures",), ("databases",), ("query-processing",)),
    ("data-warehousing", "Data Warehousing", ("olap",), ("databases",), ("business-intelligence",)),
    ("business-intelligence", "Business Intelligence", (), ("data-management",), ()),
    ("nosql", "NoSQL", ("nosql databases",), ("databases",), ("distributed-databases",)),
    ("key-value-stores", "Key-Value Stores", (), ("nosql",), ()),
    ("document-stores", "Document Stores", ("document databases",), ("nosql",), ()),
    ("column-stores", "Column Stores", ("columnar databases",), ("nosql",), ("data-warehousing",)),
    ("graph-databases", "Graph Databases", (), ("nosql",), ("graph-data-management",)),
    ("distributed-databases", "Distributed Databases", (), ("databases", "distributed-systems"), ()),
    ("data-integration", "Data Integration", (), ("data-management",), ("data-cleaning",)),
    ("schema-matching", "Schema Matching", ("schema mapping",), ("data-integration",), ()),
    ("entity-resolution", "Entity Resolution", ("record linkage", "deduplication"), ("data-integration",), ("name-disambiguation",)),
    ("data-cleaning", "Data Cleaning", ("data cleansing",), ("data-management",), ("data-quality",)),
    ("data-quality", "Data Quality", (), ("data-management",), ()),
    ("data-provenance", "Data Provenance", ("provenance",), ("data-management",), ()),
    ("data-privacy", "Data Privacy", (), ("data-management", "computer-security"), ()),
    ("differential-privacy", "Differential Privacy", (), ("data-privacy",), ()),
    ("data-streams", "Data Streams", ("streaming data",), ("data-management",), ("stream-processing",)),
    ("spatial-databases", "Spatial Databases", ("spatial data management",), ("databases",), ()),
    ("temporal-databases", "Temporal Databases", (), ("databases",), ()),
    ("in-memory-databases", "In-Memory Databases", ("main memory databases",), ("databases",), ()),
    ("graph-data-management", "Graph Data Management", (), ("data-management",), ("graph-mining",)),
    ("graph-query-processing", "Graph Query Processing", (), ("graph-data-management", "query-processing"), ()),
    ("xml", "XML", ("extensible markup language",), ("data-management",), ("semi-structured-data",)),
    ("semi-structured-data", "Semi-Structured Data", (), ("data-management",), ()),
    ("json", "JSON", (), ("semi-structured-data",), ("document-stores",)),
    ("crowdsourcing", "Crowdsourcing", (), ("data-management",), ()),
    ("scientific-workflows", "Scientific Workflows", (), ("data-management",), ("data-provenance",)),
    ("metadata-management", "Metadata Management", (), ("data-management",), ()),
    # ------------------------------------------------------------------
    # Semantic web cluster (the paper's worked example)
    # ------------------------------------------------------------------
    ("semantic-web", "Semantic Web", ("web of data",), ("data-management",), ("knowledge-representation",)),
    ("rdf", "RDF", ("resource description framework",), ("semantic-web",), ("linked-open-data", "graph-data-management")),
    ("sparql", "SPARQL", ("sparql query language",), ("rdf", "query-languages"), ()),
    ("rdf-stores", "RDF Stores", ("triple stores", "triplestores"), ("rdf", "databases"), ()),
    ("owl", "OWL", ("web ontology language",), ("semantic-web", "ontologies"), ()),
    ("linked-open-data", "Linked Open Data", ("linked data", "lod"), ("semantic-web",), ()),
    ("ontologies", "Ontologies", ("ontology engineering",), ("knowledge-representation", "semantic-web"), ()),
    ("ontology-matching", "Ontology Matching", ("ontology alignment",), ("ontologies",), ("schema-matching",)),
    ("knowledge-graphs", "Knowledge Graphs", (), ("semantic-web", "knowledge-representation"), ("graph-data-management",)),
    ("knowledge-representation", "Knowledge Representation", ("knowledge representation and reasoning",), ("artificial-intelligence",), ()),
    ("reasoning", "Reasoning", ("automated reasoning",), ("knowledge-representation",), ()),
    ("description-logics", "Description Logics", (), ("reasoning",), ("owl",)),
    ("rdf-schema", "RDF Schema", ("rdfs",), ("rdf",), ()),
    ("shacl", "SHACL", ("shapes constraint language",), ("rdf",), ("data-quality",)),
    ("federated-queries", "Federated Queries", ("federated query processing",), ("sparql", "distributed-databases"), ()),
    # ------------------------------------------------------------------
    # Big data / large-scale processing
    # ------------------------------------------------------------------
    ("big-data", "Big Data", ("big data management",), ("data-management", "distributed-systems"), ()),
    ("mapreduce", "MapReduce", (), ("big-data",), ("hadoop",)),
    ("hadoop", "Hadoop", ("apache hadoop",), ("big-data",), ()),
    ("spark", "Spark", ("apache spark",), ("big-data",), ("mapreduce",)),
    ("stream-processing", "Stream Processing", ("data stream processing",), ("big-data",), ("complex-event-processing",)),
    ("complex-event-processing", "Complex Event Processing", ("cep",), ("stream-processing",), ()),
    ("batch-processing", "Batch Processing", (), ("big-data",), ()),
    ("data-lakes", "Data Lakes", (), ("big-data",), ("data-warehousing",)),
    ("large-scale-graph-processing", "Large-Scale Graph Processing", ("graph processing",), ("big-data", "graph-data-management"), ()),
    ("benchmarking", "Benchmarking", ("performance evaluation",), ("data-management",), ()),
    ("elasticity", "Elasticity", ("elastic scaling",), ("cloud-computing",), ()),
    # ------------------------------------------------------------------
    # Data mining / machine learning
    # ------------------------------------------------------------------
    ("machine-learning", "Machine Learning", ("ml",), ("artificial-intelligence",), ("data-mining",)),
    ("supervised-learning", "Supervised Learning", (), ("machine-learning",), ()),
    ("unsupervised-learning", "Unsupervised Learning", (), ("machine-learning",), ()),
    ("classification", "Classification", (), ("supervised-learning",), ()),
    ("regression", "Regression", (), ("supervised-learning",), ()),
    ("clustering", "Clustering", ("cluster analysis",), ("unsupervised-learning",), ()),
    ("deep-learning", "Deep Learning", (), ("machine-learning",), ("neural-networks",)),
    ("neural-networks", "Neural Networks", ("artificial neural networks",), ("machine-learning",), ()),
    ("convolutional-neural-networks", "Convolutional Neural Networks", ("cnn",), ("deep-learning",), ()),
    ("recurrent-neural-networks", "Recurrent Neural Networks", ("rnn",), ("deep-learning",), ()),
    ("reinforcement-learning", "Reinforcement Learning", (), ("machine-learning",), ()),
    ("automl", "AutoML", ("automated machine learning",), ("machine-learning",), ("hyperparameter-optimization",)),
    ("hyperparameter-optimization", "Hyperparameter Optimization", ("hyperparameter tuning",), ("machine-learning",), ()),
    ("feature-engineering", "Feature Engineering", ("feature selection",), ("machine-learning",), ()),
    ("data-mining", "Data Mining", ("knowledge discovery",), ("data-management", "artificial-intelligence"), ()),
    ("frequent-pattern-mining", "Frequent Pattern Mining", ("association rules",), ("data-mining",), ()),
    ("graph-mining", "Graph Mining", (), ("data-mining",), ()),
    ("text-mining", "Text Mining", (), ("data-mining",), ("natural-language-processing",)),
    ("web-mining", "Web Mining", (), ("data-mining",), ("web-crawling",)),
    ("anomaly-detection", "Anomaly Detection", ("outlier detection",), ("data-mining",), ()),
    ("recommender-systems", "Recommender Systems", ("recommendation systems",), ("data-mining", "information-retrieval"), ()),
    ("collaborative-filtering", "Collaborative Filtering", (), ("recommender-systems",), ()),
    ("matrix-factorization", "Matrix Factorization", (), ("recommender-systems", "machine-learning"), ()),
    ("learning-to-rank", "Learning to Rank", (), ("machine-learning", "information-retrieval"), ()),
    ("social-network-analysis", "Social Network Analysis", (), ("data-mining",), ("graph-mining",)),
    ("community-detection", "Community Detection", (), ("social-network-analysis",), ("clustering",)),
    ("link-prediction", "Link Prediction", (), ("social-network-analysis",), ()),
    ("time-series-analysis", "Time Series Analysis", ("time series",), ("data-mining",), ("data-streams",)),
    ("predictive-analytics", "Predictive Analytics", (), ("data-mining",), ("machine-learning",)),
    ("explainable-ai", "Explainable AI", ("xai", "interpretability"), ("artificial-intelligence",), ()),
    ("federated-learning", "Federated Learning", (), ("machine-learning", "distributed-systems"), ("data-privacy",)),
    # ------------------------------------------------------------------
    # NLP / IR
    # ------------------------------------------------------------------
    ("natural-language-processing", "Natural Language Processing", ("nlp", "computational linguistics"), ("artificial-intelligence",), ()),
    ("information-extraction", "Information Extraction", (), ("natural-language-processing",), ("text-mining",)),
    ("named-entity-recognition", "Named Entity Recognition", ("ner",), ("information-extraction",), ()),
    ("relation-extraction", "Relation Extraction", (), ("information-extraction",), ()),
    ("machine-translation", "Machine Translation", (), ("natural-language-processing",), ()),
    ("sentiment-analysis", "Sentiment Analysis", ("opinion mining",), ("natural-language-processing",), ("text-mining",)),
    ("question-answering", "Question Answering", (), ("natural-language-processing", "information-retrieval"), ()),
    ("text-summarization", "Text Summarization", (), ("natural-language-processing",), ()),
    ("topic-modeling", "Topic Modeling", ("topic models", "lda"), ("text-mining", "unsupervised-learning"), ()),
    ("word-embeddings", "Word Embeddings", ("distributed word representations",), ("natural-language-processing", "deep-learning"), ()),
    ("language-models", "Language Models", ("language modeling",), ("natural-language-processing",), ("deep-learning",)),
    ("search-engines", "Search Engines", ("web search",), ("information-retrieval",), ()),
    ("ranking", "Ranking", ("ranking algorithms",), ("information-retrieval",), ("learning-to-rank",)),
    ("relevance-feedback", "Relevance Feedback", (), ("information-retrieval",), ()),
    ("query-expansion", "Query Expansion", (), ("information-retrieval",), ("ontologies",)),
    ("semantic-search", "Semantic Search", (), ("information-retrieval", "semantic-web"), ()),
    ("text-indexing", "Text Indexing", ("inverted indexes",), ("information-retrieval", "indexing"), ()),
    ("web-crawling", "Web Crawling", ("web scraping", "crawling"), ("information-retrieval",), ()),
    ("digital-libraries", "Digital Libraries", (), ("information-retrieval",), ("scientometrics",)),
    ("citation-analysis", "Citation Analysis", ("citation networks",), ("scientometrics",), ("social-network-analysis",)),
    ("peer-review", "Peer Review", ("scientific peer review",), ("scientometrics",), ()),
    ("reviewer-assignment", "Reviewer Assignment", ("paper-reviewer assignment", "reviewer recommendation"), ("peer-review", "recommender-systems"), ()),
    ("expert-finding", "Expert Finding", ("expertise retrieval",), ("information-retrieval",), ("reviewer-assignment",)),
    ("name-disambiguation", "Name Disambiguation", ("author name disambiguation",), ("digital-libraries",), ("entity-resolution",)),
    ("academic-search", "Academic Search", ("scholarly search",), ("digital-libraries", "search-engines"), ()),
    ("conflict-of-interest-detection", "Conflict of Interest Detection", ("coi detection",), ("peer-review",), ("social-network-analysis",)),
    ("h-index", "H-Index", ("hirsch index",), ("citation-analysis",), ()),
    ("bibliographic-databases", "Bibliographic Databases", ("bibliographic data",), ("digital-libraries", "databases"), ()),
    # ------------------------------------------------------------------
    # Distributed systems / cloud
    # ------------------------------------------------------------------
    ("cloud-computing", "Cloud Computing", (), ("distributed-systems",), ()),
    ("virtualization", "Virtualization", (), ("cloud-computing", "operating-systems"), ()),
    ("containers", "Containers", ("containerization",), ("virtualization",), ()),
    ("serverless-computing", "Serverless Computing", ("function as a service",), ("cloud-computing",), ()),
    ("edge-computing", "Edge Computing", ("fog computing",), ("cloud-computing",), ("internet-of-things",)),
    ("consensus-protocols", "Consensus Protocols", ("consensus algorithms", "paxos", "raft"), ("distributed-systems",), ()),
    ("replication", "Replication", ("data replication",), ("distributed-systems", "databases"), ()),
    ("fault-tolerance", "Fault Tolerance", (), ("distributed-systems",), ()),
    ("load-balancing", "Load Balancing", (), ("distributed-systems",), ()),
    ("peer-to-peer", "Peer-to-Peer", ("p2p",), ("distributed-systems",), ()),
    ("blockchain", "Blockchain", ("distributed ledger",), ("distributed-systems",), ("consensus-protocols", "cryptography")),
    ("smart-contracts", "Smart Contracts", (), ("blockchain",), ()),
    ("microservices", "Microservices", ("microservice architecture",), ("distributed-systems", "software-architecture"), ()),
    ("message-queues", "Message Queues", ("message brokers",), ("distributed-systems",), ()),
    ("distributed-computing", "Distributed Computing", (), ("distributed-systems",), ()),
    ("grid-computing", "Grid Computing", (), ("distributed-computing",), ()),
    ("high-performance-computing", "High-Performance Computing", ("hpc", "supercomputing"), ("distributed-computing", "computer-architecture"), ()),
    ("parallel-computing", "Parallel Computing", ("parallel processing",), ("high-performance-computing",), ()),
    ("gpu-computing", "GPU Computing", ("gpgpu",), ("parallel-computing",), ()),
    ("scheduling", "Scheduling", ("job scheduling",), ("distributed-systems", "operating-systems"), ()),
    ("resource-management", "Resource Management", ("resource allocation",), ("distributed-systems",), ("scheduling",)),
    # ------------------------------------------------------------------
    # Networks / IoT
    # ------------------------------------------------------------------
    ("internet-of-things", "Internet of Things", ("iot",), ("computer-networks",), ()),
    ("wireless-networks", "Wireless Networks", (), ("computer-networks",), ()),
    ("sensor-networks", "Sensor Networks", ("wireless sensor networks",), ("wireless-networks", "internet-of-things"), ()),
    ("software-defined-networking", "Software-Defined Networking", ("sdn",), ("computer-networks",), ()),
    ("network-protocols", "Network Protocols", (), ("computer-networks",), ()),
    ("network-security", "Network Security", (), ("computer-networks", "computer-security"), ()),
    ("mobile-computing", "Mobile Computing", (), ("computer-networks",), ()),
    ("5g", "5G", ("5g networks",), ("wireless-networks",), ()),
    # ------------------------------------------------------------------
    # Security / privacy
    # ------------------------------------------------------------------
    ("cryptography", "Cryptography", (), ("computer-security", "theory-of-computation"), ()),
    ("encryption", "Encryption", (), ("cryptography",), ()),
    ("homomorphic-encryption", "Homomorphic Encryption", (), ("encryption",), ("data-privacy",)),
    ("authentication", "Authentication", (), ("computer-security",), ()),
    ("access-control", "Access Control", ("authorization",), ("computer-security",), ()),
    ("intrusion-detection", "Intrusion Detection", ("ids",), ("network-security",), ("anomaly-detection",)),
    ("malware-analysis", "Malware Analysis", ("malware detection",), ("computer-security",), ()),
    ("privacy-preserving-computation", "Privacy-Preserving Computation", ("secure multiparty computation",), ("data-privacy", "cryptography"), ()),
    ("trust-management", "Trust Management", (), ("computer-security",), ()),
    # ------------------------------------------------------------------
    # Software engineering / PL
    # ------------------------------------------------------------------
    ("software-architecture", "Software Architecture", (), ("software-engineering",), ()),
    ("software-testing", "Software Testing", ("testing",), ("software-engineering",), ()),
    ("program-analysis", "Program Analysis", ("static analysis",), ("software-engineering", "programming-languages"), ()),
    ("software-verification", "Software Verification", ("formal verification",), ("software-engineering",), ("model-checking",)),
    ("model-checking", "Model Checking", (), ("software-verification", "theory-of-computation"), ()),
    ("devops", "DevOps", ("continuous integration",), ("software-engineering",), ()),
    ("requirements-engineering", "Requirements Engineering", (), ("software-engineering",), ()),
    ("model-driven-engineering", "Model-Driven Engineering", ("mde", "model driven development"), ("software-engineering",), ()),
    ("compilers", "Compilers", ("compiler construction",), ("programming-languages",), ()),
    ("type-systems", "Type Systems", ("type theory",), ("programming-languages",), ()),
    ("functional-programming", "Functional Programming", (), ("programming-languages",), ()),
    ("business-process-management", "Business Process Management", ("bpm",), ("software-engineering", "data-management"), ()),
    ("process-mining", "Process Mining", (), ("business-process-management", "data-mining"), ()),
    ("workflow-management", "Workflow Management", ("workflow systems",), ("business-process-management",), ("scientific-workflows",)),
    ("petri-nets", "Petri Nets", (), ("business-process-management", "theory-of-computation"), ()),
    # ------------------------------------------------------------------
    # Theory
    # ------------------------------------------------------------------
    ("algorithms", "Algorithms", ("algorithm design",), ("theory-of-computation",), ()),
    ("graph-algorithms", "Graph Algorithms", ("graph theory",), ("algorithms",), ("graph-mining",)),
    ("approximation-algorithms", "Approximation Algorithms", (), ("algorithms",), ()),
    ("randomized-algorithms", "Randomized Algorithms", (), ("algorithms",), ()),
    ("computational-complexity", "Computational Complexity", ("complexity theory",), ("theory-of-computation",), ()),
    ("optimization", "Optimization", ("mathematical optimization",), ("theory-of-computation",), ("machine-learning",)),
    ("combinatorial-optimization", "Combinatorial Optimization", (), ("optimization",), ()),
    ("linear-programming", "Linear Programming", (), ("optimization",), ()),
    ("game-theory", "Game Theory", (), ("theory-of-computation",), ()),
    ("data-structures", "Data Structures", (), ("algorithms",), ("indexing",)),
    # ------------------------------------------------------------------
    # HCI / graphics / vision
    # ------------------------------------------------------------------
    ("data-visualization", "Data Visualization", ("information visualization", "visual analytics"), ("human-computer-interaction", "data-management"), ()),
    ("user-interfaces", "User Interfaces", ("ui design",), ("human-computer-interaction",), ()),
    ("usability", "Usability", ("user experience",), ("human-computer-interaction",), ()),
    ("computer-vision", "Computer Vision", (), ("artificial-intelligence",), ("image-processing",)),
    ("image-processing", "Image Processing", (), ("computer-graphics",), ()),
    ("object-detection", "Object Detection", (), ("computer-vision",), ("deep-learning",)),
    ("image-classification", "Image Classification", (), ("computer-vision",), ("classification",)),
    ("rendering", "Rendering", (), ("computer-graphics",), ()),
    ("augmented-reality", "Augmented Reality", ("ar",), ("computer-graphics", "human-computer-interaction"), ()),
    ("virtual-reality", "Virtual Reality", ("vr",), ("computer-graphics", "human-computer-interaction"), ()),
    # ------------------------------------------------------------------
    # Systems / architecture
    # ------------------------------------------------------------------
    ("storage-systems", "Storage Systems", (), ("operating-systems",), ("databases",)),
    ("file-systems", "File Systems", (), ("storage-systems",), ()),
    ("caching", "Caching", ("cache management",), ("computer-architecture", "operating-systems"), ()),
    ("memory-management", "Memory Management", (), ("operating-systems",), ()),
    ("energy-efficiency", "Energy Efficiency", ("power management",), ("computer-architecture",), ()),
    ("embedded-systems", "Embedded Systems", (), ("computer-architecture",), ("internet-of-things",)),
    ("real-time-systems", "Real-Time Systems", (), ("embedded-systems", "operating-systems"), ()),
    ("hardware-accelerators", "Hardware Accelerators", ("fpga", "accelerators"), ("computer-architecture",), ("gpu-computing",)),
    # ------------------------------------------------------------------
    # Applied areas
    # ------------------------------------------------------------------
    ("genomics", "Genomics", ("genome analysis",), ("bioinformatics",), ()),
    ("sequence-alignment", "Sequence Alignment", (), ("bioinformatics",), ("algorithms",)),
    ("health-informatics", "Health Informatics", ("medical informatics", "ehealth"), ("bioinformatics",), ("data-management",)),
    ("smart-cities", "Smart Cities", (), ("internet-of-things",), ("urban-computing",)),
    ("urban-computing", "Urban Computing", (), ("data-mining",), ()),
    ("e-learning", "E-Learning", ("educational technology",), ("human-computer-interaction",), ()),
    ("digital-humanities", "Digital Humanities", (), ("computer-science",), ("digital-libraries",)),
    ("fintech", "FinTech", ("financial technology",), ("computer-science",), ("blockchain",)),
    ("autonomous-vehicles", "Autonomous Vehicles", ("self driving cars",), ("artificial-intelligence",), ("computer-vision",)),
    ("robotics", "Robotics", (), ("artificial-intelligence",), ("computer-vision",)),
    ("speech-recognition", "Speech Recognition", ("automatic speech recognition",), ("natural-language-processing",), ("deep-learning",)),
    ("chatbots", "Chatbots", ("dialogue systems", "conversational agents"), ("natural-language-processing",), ()),
    ("multi-agent-systems", "Multi-Agent Systems", ("agent based systems",), ("artificial-intelligence",), ("game-theory",)),
    ("planning", "Planning", ("automated planning",), ("artificial-intelligence",), ("scheduling",)),
    ("constraint-satisfaction", "Constraint Satisfaction", ("constraint programming",), ("artificial-intelligence",), ("combinatorial-optimization",)),
    ("evolutionary-computation", "Evolutionary Computation", ("genetic algorithms",), ("artificial-intelligence",), ("optimization",)),
    ("swarm-intelligence", "Swarm Intelligence", (), ("evolutionary-computation",), ()),
    ("fuzzy-logic", "Fuzzy Logic", ("fuzzy systems",), ("artificial-intelligence",), ()),
    ("bayesian-networks", "Bayesian Networks", ("probabilistic graphical models",), ("machine-learning",), ()),
    ("transfer-learning", "Transfer Learning", (), ("machine-learning",), ()),
    ("active-learning", "Active Learning", (), ("machine-learning",), ("crowdsourcing",)),
    ("online-learning", "Online Learning", (), ("machine-learning",), ("data-streams",)),
    ("graph-neural-networks", "Graph Neural Networks", ("gnn",), ("deep-learning", "graph-mining"), ()),
    ("attention-mechanisms", "Attention Mechanisms", ("transformers",), ("deep-learning",), ("language-models",)),
    ("generative-models", "Generative Models", ("generative adversarial networks", "gan"), ("deep-learning",), ()),
    ("self-supervised-learning", "Self-Supervised Learning", (), ("machine-learning",), ("unsupervised-learning",)),
    ("meta-learning", "Meta-Learning", ("learning to learn",), ("machine-learning",), ("automl",)),
    ("data-augmentation", "Data Augmentation", (), ("machine-learning",), ()),
    ("model-compression", "Model Compression", ("knowledge distillation",), ("deep-learning",), ()),
    ("ml-systems", "ML Systems", ("machine learning systems", "mlops"), ("machine-learning", "distributed-systems"), ("ml-pipelines",)),
    ("ml-pipelines", "ML Pipelines", ("machine learning pipelines",), ("ml-systems",), ("workflow-management",)),
    ("data-labeling", "Data Labeling", ("data annotation",), ("machine-learning",), ("crowdsourcing",)),
    ("similarity-search", "Similarity Search", ("nearest neighbor search",), ("information-retrieval", "databases"), ("indexing",)),
    ("approximate-query-processing", "Approximate Query Processing", (), ("query-processing",), ("sampling",)),
    ("sampling", "Sampling", ("sampling methods",), ("algorithms",), ()),
    ("sketching", "Sketching", ("data sketches",), ("algorithms", "data-streams"), ()),
    ("cardinality-estimation", "Cardinality Estimation", (), ("query-optimization",), ("machine-learning",)),
    ("learned-indexes", "Learned Indexes", (), ("indexing", "machine-learning"), ()),
    ("self-tuning-databases", "Self-Tuning Databases", ("autonomous databases", "self driving databases"), ("databases", "machine-learning"), ()),
    ("etl", "ETL", ("extract transform load",), ("data-integration", "data-warehousing"), ()),
    ("data-catalogs", "Data Catalogs", (), ("metadata-management",), ("data-lakes",)),
    ("polystores", "Polystores", ("multistore systems",), ("data-integration", "distributed-databases"), ()),
    ("data-versioning", "Data Versioning", (), ("data-management",), ("data-provenance",)),
    ("array-databases", "Array Databases", ("scientific databases",), ("databases",), ()),
    ("text-databases", "Text Databases", (), ("databases", "information-retrieval"), ()),
    ("probabilistic-databases", "Probabilistic Databases", ("uncertain data",), ("databases",), ()),
    ("data-pricing", "Data Pricing", ("data markets",), ("data-management",), ()),
    ("gdpr-compliance", "GDPR Compliance", ("data protection regulation",), ("data-privacy",), ()),
    ("keyword-search", "Keyword Search", ("keyword search over databases",), ("information-retrieval", "databases"), ()),
    ("faceted-search", "Faceted Search", (), ("search-engines",), ()),
    ("entity-search", "Entity Search", (), ("semantic-search",), ("knowledge-graphs",)),
    ("table-understanding", "Table Understanding", ("web tables",), ("data-integration", "information-extraction"), ()),
    ("data-discovery", "Data Discovery", ("dataset search",), ("data-management",), ("data-catalogs",)),
    ("schema-evolution", "Schema Evolution", (), ("databases",), ("data-versioning",)),
    ("views", "Materialized Views", ("view maintenance",), ("query-optimization",), ()),
    ("joins", "Join Processing", ("join algorithms",), ("query-processing",), ()),
    ("skyline-queries", "Skyline Queries", (), ("query-processing",), ("ranking",)),
    ("top-k-queries", "Top-K Queries", ("top-k query processing",), ("query-processing",), ("ranking",)),
    ("spatial-queries", "Spatial Queries", (), ("spatial-databases",), ()),
    ("trajectory-data", "Trajectory Data", ("trajectory mining",), ("spatial-databases", "data-mining"), ()),
    ("geospatial-analytics", "Geospatial Analytics", ("gis",), ("spatial-databases",), ("data-visualization",)),
    ("provenance-queries", "Provenance Queries", (), ("data-provenance", "query-processing"), ()),
    ("what-if-analysis", "What-If Analysis", (), ("business-intelligence",), ()),
    ("olap-cubes", "OLAP Cubes", ("data cubes",), ("data-warehousing",), ()),
    ("columnar-compression", "Columnar Compression", ("data compression",), ("column-stores",), ()),
    ("vectorized-execution", "Vectorized Execution", (), ("query-processing", "computer-architecture"), ()),
    ("adaptive-query-processing", "Adaptive Query Processing", (), ("query-processing",), ()),
    ("multi-query-optimization", "Multi-Query Optimization", (), ("query-optimization",), ()),
    ("cost-models", "Cost Models", ("query cost estimation",), ("query-optimization",), ()),
    ("hybrid-transactional-analytical", "HTAP", ("hybrid transactional analytical processing",), ("databases",), ("in-memory-databases",)),
    ("snapshot-isolation", "Snapshot Isolation", (), ("concurrency-control",), ()),
    ("serializability", "Serializability", (), ("concurrency-control",), ()),
    ("two-phase-commit", "Two-Phase Commit", ("distributed transactions",), ("transaction-processing", "distributed-databases"), ()),
    ("logging-and-recovery", "Logging and Recovery", ("crash recovery", "write ahead logging"), ("transaction-processing",), ("fault-tolerance",)),
    ("eventual-consistency", "Eventual Consistency", ("weak consistency",), ("replication",), ()),
    ("cap-theorem", "CAP Theorem", (), ("distributed-databases",), ("eventual-consistency",)),
    ("crdt", "CRDTs", ("conflict free replicated data types",), ("replication",), ("eventual-consistency",)),
    ("sharding", "Sharding", ("data partitioning", "horizontal partitioning"), ("distributed-databases",), ("load-balancing",)),
    ("b-trees", "B-Trees", ("b+ trees",), ("indexing", "data-structures"), ()),
    ("lsm-trees", "LSM Trees", ("log structured merge trees",), ("indexing", "storage-systems"), ("key-value-stores",)),
    ("hash-indexes", "Hash Indexes", ("hashing",), ("indexing", "data-structures"), ()),
    ("bloom-filters", "Bloom Filters", (), ("data-structures",), ("sketching",)),
    ("bitmap-indexes", "Bitmap Indexes", (), ("indexing",), ("data-warehousing",)),
    ("full-text-search", "Full-Text Search", (), ("text-indexing",), ("search-engines",)),
)


def build_seed_ontology() -> TopicOntology:
    """Materialize the curated seed catalogue into a :class:`TopicOntology`.

    Declared ``broader`` and ``related`` links reference only topics in
    the catalogue; a broken reference is a programming error and raises.
    """
    ontology = TopicOntology()
    edges = 0
    for topic_id, label, alt_labels, __, __unused in _TOPICS:
        ontology.add_topic(topic_id, label, alt_labels=alt_labels)
    for topic_id, __, __unused, broader, related in _TOPICS:
        for parent in broader:
            ontology.add_edge(topic_id, Relation.BROADER, parent)
            edges += 1
        for other in related:
            ontology.add_edge(topic_id, Relation.RELATED, other)
            edges += 1
    # Telemetry goes through repro.obs like every other subsystem.
    get_obs().emit("ontology_built", topics=len(_TOPICS), edges=edges)
    return ontology
